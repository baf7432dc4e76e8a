#include "workloads/workloads.hpp"

#include "workloads/workloads_detail.hpp"

namespace safara::workloads {

void fill(driver::HostArray& arr, std::uint64_t seed, double lo, double hi) {
  std::uint64_t s = seed * 2654435761ULL + 88172645463325252ULL;
  const std::int64_t count = arr.element_count();
  const bool is_float = ast::is_float(arr.elem);
  for (std::int64_t i = 0; i < count; ++i) {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    double u = static_cast<double>(s % 100000) / 100000.0;
    double v = lo + (hi - lo) * u;
    if (is_float) {
      arr.set(i, v);
    } else {
      arr.set_int(i, static_cast<std::int64_t>(u * 1000.0));
    }
  }
}

const std::vector<Workload>& all_workloads() {
  static const std::vector<Workload> kAll = [] {
    std::vector<Workload> v;
    v.push_back(detail::make_spec_ostencil());
    v.push_back(detail::make_spec_olbm());
    v.push_back(detail::make_spec_omriq());
    v.push_back(detail::make_spec_md());
    v.push_back(detail::make_spec_ep());
    v.push_back(detail::make_spec_clvrleaf());
    v.push_back(detail::make_spec_cg());
    v.push_back(detail::make_spec_seismic());
    v.push_back(detail::make_spec_sp());
    v.push_back(detail::make_spec_swim());
    v.push_back(detail::make_nas_ep());
    v.push_back(detail::make_nas_cg());
    v.push_back(detail::make_nas_mg());
    v.push_back(detail::make_nas_sp());
    v.push_back(detail::make_nas_lu());
    v.push_back(detail::make_nas_bt());
    return v;
  }();
  return kAll;
}

std::vector<const Workload*> spec_suite() {
  std::vector<const Workload*> out;
  for (const Workload& w : all_workloads()) {
    if (w.suite == "SPEC") out.push_back(&w);
  }
  return out;
}

std::vector<const Workload*> nas_suite() {
  std::vector<const Workload*> out;
  for (const Workload& w : all_workloads()) {
    if (w.suite == "NPB") out.push_back(&w);
  }
  return out;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : all_workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

}  // namespace safara::workloads

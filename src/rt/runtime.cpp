#include "rt/runtime.hpp"

#include <cstring>
#include <stdexcept>

#include "rt/host_eval.hpp"

namespace safara::rt {

namespace {

std::uint64_t pun_scalar(const ScalarValue& v, vir::VType as) {
  switch (as) {
    case vir::VType::kI32: {
      std::int32_t x = static_cast<std::int32_t>(v.as_int());
      return static_cast<std::uint32_t>(x);
    }
    case vir::VType::kI64:
      return static_cast<std::uint64_t>(v.as_int());
    case vir::VType::kF32: {
      float f = static_cast<float>(v.as_double());
      std::uint32_t u;
      std::memcpy(&u, &f, 4);
      return u;
    }
    case vir::VType::kF64: {
      double d = v.as_double();
      std::uint64_t u;
      std::memcpy(&u, &d, 8);
      return u;
    }
    case vir::VType::kPred:
      return v.as_int() != 0;
  }
  return 0;
}

std::uint64_t pun_int(std::int64_t v, vir::VType as) {
  ScalarValue sv = ScalarValue::of_i64(v);
  return pun_scalar(sv, as);
}

std::int64_t trip_count(std::int64_t init, std::int64_t bound, ast::CmpOp cmp,
                        std::int64_t step) {
  std::int64_t span;
  switch (cmp) {
    case ast::CmpOp::kLt: span = bound - init; break;
    case ast::CmpOp::kLe: span = bound - init + 1; break;
    case ast::CmpOp::kGt: span = init - bound; break;
    case ast::CmpOp::kGe: span = init - bound + 1; break;
    default: span = 0; break;
  }
  std::int64_t s = std::llabs(step);
  if (span <= 0 || s == 0) return 0;
  return (span + s - 1) / s;
}

}  // namespace

Buffer Runtime::alloc(ast::ScalarType elem, std::vector<Dim> dims) {
  Buffer buf;
  buf.elem = elem;
  buf.dims = std::move(dims);
  buf.device_addr = dev_.memory().allocate(buf.byte_size());
  return buf;
}

vgpu::LaunchConfig Runtime::configure(const codegen::LaunchPlan& plan,
                                      const ArgMap& args) const {
  vgpu::LaunchConfig cfg;
  const std::size_t ndims = std::min<std::size_t>(plan.dims.size(), 3);
  for (std::size_t d = 0; d < ndims; ++d) {
    const codegen::DimPlan& dp = plan.dims[d];
    std::int64_t init = eval_int(*dp.init, args);
    std::int64_t bound = eval_int(*dp.bound, args);
    std::int64_t trips = trip_count(init, bound, dp.cmp, dp.step);

    std::int64_t block;
    if (dp.vector_len) {
      block = eval_int(*dp.vector_len, args);
    } else {
      block = d == 0 ? codegen::LaunchPlan::kDefaultVectorLen : 1;
    }
    block = std::max<std::int64_t>(1, std::min<std::int64_t>(block, 1024));

    std::int64_t grid;
    if (dp.gang_count) {
      grid = std::max<std::int64_t>(1, eval_int(*dp.gang_count, args));
    } else {
      grid = std::max<std::int64_t>(1, (trips + block - 1) / block);
    }
    cfg.block[d] = static_cast<int>(block);
    cfg.grid[d] = static_cast<int>(grid);
  }
  // Respect the hardware block-size limit across all dimensions.
  while (cfg.threads_per_block() > 1024) {
    for (int d = 2; d >= 0; --d) {
      if (cfg.block[d] > 1) {
        cfg.block[d] /= 2;
        cfg.grid[d] *= 2;
        break;
      }
    }
  }
  return cfg;
}

std::vector<std::uint64_t> Runtime::marshal_params(const vir::Kernel& kernel,
                                                   const ArgMap& args) const {
  std::vector<std::uint64_t> values;
  values.reserve(kernel.params.size());
  for (const vir::ParamInfo& p : kernel.params) {
    auto it = args.find(p.name);
    if (it == args.end()) {
      throw std::runtime_error("launch: missing argument '" + p.name + "' for kernel " +
                               kernel.name);
    }
    switch (p.kind) {
      case vir::ParamInfo::Kind::kScalar: {
        const ScalarValue* sv = std::get_if<ScalarValue>(&it->second);
        if (!sv) {
          throw std::runtime_error("launch: argument '" + p.name +
                                   "' should be a scalar");
        }
        values.push_back(pun_scalar(*sv, p.type));
        break;
      }
      case vir::ParamInfo::Kind::kArrayBase: {
        Buffer* const* buf = std::get_if<Buffer*>(&it->second);
        if (!buf) {
          throw std::runtime_error("launch: argument '" + p.name +
                                   "' should be a buffer");
        }
        values.push_back((*buf)->device_addr);
        break;
      }
      case vir::ParamInfo::Kind::kDopeLb:
      case vir::ParamInfo::Kind::kDopeLen: {
        Buffer* const* buf = std::get_if<Buffer*>(&it->second);
        if (!buf) {
          throw std::runtime_error("launch: dope parameter of non-buffer '" + p.name + "'");
        }
        const std::vector<Dim>& dims = (*buf)->dims;
        if (p.dim < 0 || p.dim >= static_cast<int>(dims.size())) {
          throw std::runtime_error("launch: dope dimension out of range for '" +
                                   p.name + "'");
        }
        std::int64_t v = p.kind == vir::ParamInfo::Kind::kDopeLb
                             ? dims[static_cast<std::size_t>(p.dim)].lb
                             : dims[static_cast<std::size_t>(p.dim)].len;
        values.push_back(pun_int(v, p.type));
        break;
      }
    }
  }
  return values;
}

vgpu::LaunchStats Runtime::launch(const vir::Kernel& kernel,
                                  const regalloc::AllocationResult& alloc,
                                  const codegen::LaunchPlan& plan, const ArgMap& args,
                                  obs::Collector* collector) {
  vgpu::LaunchConfig cfg = configure(plan, args);
  std::vector<std::uint64_t> params = marshal_params(kernel, args);
  return vgpu::launch(kernel, alloc, dev_.spec(), dev_.memory(), params, cfg, collector,
                      sim_);
}

}  // namespace safara::rt

#include "driver/verified_launch.hpp"

#include <sstream>

#include "rt/host_eval.hpp"

namespace safara::driver {

namespace {

const rt::Buffer* buffer_arg(const rt::ArgMap& args, const std::string& name,
                             std::vector<std::string>& violations) {
  auto it = args.find(name);
  if (it == args.end()) {
    violations.push_back("array '" + name + "' is not bound");
    return nullptr;
  }
  rt::Buffer* const* buf = std::get_if<rt::Buffer*>(&it->second);
  if (!buf) {
    violations.push_back("argument '" + name + "' is not a buffer");
    return nullptr;
  }
  return *buf;
}

}  // namespace

std::vector<std::string> verify_clauses(const CompiledKernel& kernel,
                                        const rt::ArgMap& args) {
  std::vector<std::string> violations;

  for (const ClauseChecks::DimGroup& group : kernel.checks.dim_groups) {
    const rt::Buffer* rep = nullptr;
    for (const std::string& name : group.arrays) {
      const rt::Buffer* buf = buffer_arg(args, name, violations);
      if (!buf) continue;
      if (!rep) {
        rep = buf;
        continue;
      }
      if (buf->dims.size() != rep->dims.size()) {
        violations.push_back("dim: '" + name + "' rank differs from '" +
                             group.arrays.front() + "'");
        continue;
      }
      for (std::size_t d = 0; d < buf->dims.size(); ++d) {
        if (buf->dims[d].lb != rep->dims[d].lb || buf->dims[d].len != rep->dims[d].len) {
          std::ostringstream os;
          os << "dim: '" << name << "' dimension " << d << " is [" << buf->dims[d].lb
             << ":" << buf->dims[d].len << "] but '" << group.arrays.front()
             << "' has [" << rep->dims[d].lb << ":" << rep->dims[d].len << "]";
          violations.push_back(os.str());
        }
      }
    }
    // Explicit clause bounds must also match the actual dope vectors.
    if (rep && !group.len.empty()) {
      for (std::size_t d = 0; d < group.len.size() && d < rep->dims.size(); ++d) {
        std::int64_t want_lb = group.lb[d] ? rt::eval_int(*group.lb[d], args) : 0;
        std::int64_t want_len = rt::eval_int(*group.len[d], args);
        if (rep->dims[d].lb != want_lb || rep->dims[d].len != want_len) {
          std::ostringstream os;
          os << "dim: clause asserts dimension " << d << " = [" << want_lb << ":"
             << want_len << "] but the buffers have [" << rep->dims[d].lb << ":"
             << rep->dims[d].len << "]";
          violations.push_back(os.str());
        }
      }
    }
  }

  // small: every offset must fit a 32-bit signed integer.
  constexpr std::int64_t kSmallLimitElements = std::int64_t{1} << 31;
  constexpr std::uint64_t kSmallLimitBytes = std::uint64_t{4} << 30;  // 4 GiB
  for (const std::string& name : kernel.checks.small_arrays) {
    const rt::Buffer* buf = buffer_arg(args, name, violations);
    if (!buf) continue;
    if (buf->element_count() >= kSmallLimitElements ||
        buf->byte_size() >= kSmallLimitBytes) {
      violations.push_back("small: array '" + name + "' has " +
                           std::to_string(buf->element_count()) +
                           " elements; offsets do not fit 32 bits");
    }
  }
  return violations;
}

VerifiedLaunch launch_verified(rt::Runtime& runtime, const CompiledProgram& program,
                               std::size_t index, const rt::ArgMap& args,
                               obs::Collector* collector) {
  const CompiledKernel& kernel = program.kernels.at(index);
  VerifiedLaunch result;
  result.violations = verify_clauses(kernel, args);
  if (result.violations.empty()) {
    result.stats = runtime.launch(kernel.kernel, kernel.alloc, kernel.plan, args, collector);
    return result;
  }
  if (!program.fallback) {
    std::string all;
    for (const std::string& v : result.violations) all += "\n  " + v;
    throw std::runtime_error("clause verification failed for kernel '" + kernel.name +
                             "' and no fallback kernel was compiled:" + all);
  }
  const CompiledKernel& fb = program.fallback->kernels.at(index);
  result.used_fallback = true;
  result.stats = runtime.launch(fb.kernel, fb.alloc, fb.plan, args, collector);
  return result;
}

}  // namespace safara::driver

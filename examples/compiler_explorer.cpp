// compiler_explorer: a mini "godbolt" for the SAFARA pipeline. Feeds an
// ACC-C file (or a built-in sample) through a chosen configuration and dumps
// every stage: the post-optimization source (showing what scalar replacement
// did to the AST), the PTX-like virtual ISA, the ptxas-sim report, and the
// launch plan.
//
// Usage: compiler_explorer [file.acc] [--config base|small|small_dim|safara|
//                                               safara_clauses|pgi]
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include "ast/printer.hpp"
#include "driver/compiler.hpp"
#include "vir/vir.hpp"

using namespace safara;

static const char* kSample = R"(
void sample(int nx, int nz, float h,
            const float p[?][?], const float q[?][?], float out[?][?]) {
  #pragma acc parallel loop gang vector(64) dim((0:nx, 0:nz)(p, q, out)) small(p, q, out)
  for (i = 0; i < nx; i++) {
    #pragma acc loop seq
    for (k = 1; k < nz; k++) {
      out[i][k] = (p[i][k] - p[i][k-1]) / h + (q[i][k] + q[i][k-1]) * 0.5f;
    }
  }
}
)";

int main(int argc, char** argv) {
  std::string source = kSample;
  std::string config_name = "safara_clauses";

  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--config") == 0 && i + 1 < argc) {
      config_name = argv[++i];
    } else {
      std::ifstream in(argv[i]);
      if (!in) {
        std::fprintf(stderr, "cannot open %s\n", argv[i]);
        return 1;
      }
      std::ostringstream buf;
      buf << in.rdbuf();
      source = buf.str();
    }
  }
  const std::optional<driver::CompilerOptions> opts = driver::named_config(config_name);
  if (!opts) {
    std::fprintf(stderr, "unknown config '%s'\n", config_name.c_str());
    return 1;
  }

  driver::Compiler compiler(*opts);
  driver::CompiledProgram prog;
  try {
    prog = compiler.compile(source);
  } catch (const CompileError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }

  std::printf("== configuration: %s ==\n\n", config_name.c_str());

  std::printf("---- source after optimization passes "
              "(scalar replacement is visible here) ----\n");
  std::printf("%s\n", ast::to_source(*prog.transformed).c_str());

  for (const auto& region : prog.safara.regions) {
    if (region.log.empty()) continue;
    std::printf("---- SAFARA feedback, region %d ----\n", region.region_index);
    for (const auto& line : region.log) std::printf("%s\n", line.c_str());
    std::printf("\n");
  }

  for (const driver::CompiledKernel& k : prog.kernels) {
    std::printf("---- virtual ISA: %s ----\n", k.name.c_str());
    std::printf("%s\n", vir::to_string(k.kernel).c_str());
    std::printf("%s\n", k.ptxas_info().c_str());
    std::printf("launch plan: %zu hardware dim(s)", k.plan.dims.size());
    for (std::size_t d = 0; d < k.plan.dims.size(); ++d) {
      const codegen::DimPlan& dp = k.plan.dims[d];
      std::printf("  [%c] trip=(%s..%s %s step %lld)", "xyz"[d],
                  ast::to_source(*dp.init).c_str(), ast::to_source(*dp.bound).c_str(),
                  ast::to_string(dp.cmp), static_cast<long long>(dp.step));
      if (dp.vector_len) std::printf(" block=%s", ast::to_source(*dp.vector_len).c_str());
      if (dp.gang_count) std::printf(" grid=%s", ast::to_source(*dp.gang_count).c_str());
    }
    std::printf("\n\n");
  }
  return 0;
}

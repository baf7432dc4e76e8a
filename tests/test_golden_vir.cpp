// Golden snapshot tests: compile every tests/golden/MANIFEST entry
// in-process and require driver::dump_vir() to match the checked-in .vir
// file byte-for-byte, every fuzz_vir.digest line to match the hash of the
// generated program's dump, and every sim_profile.digest line to match the
// hash of the workload's simulator profile document. A mismatch means
// codegen, the VIR pass pipeline or the simulated schedule changed shape —
// review the diff, then re-bless with `python3 tools/update_golden.py --bless`.
#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "driver/compiler.hpp"
#include "driver/sim_profile.hpp"
#include "fuzz/generator.hpp"
#include "workloads/harness.hpp"

#ifndef SAFARA_GOLDEN_DIR
#error "SAFARA_GOLDEN_DIR must point at tests/golden"
#endif

namespace safara {
namespace {

struct Entry {
  std::string kernel;
  std::string config;
  int opt_level = 0;
};

std::string read_file(const std::string& path, bool* ok) {
  std::ifstream in(path);
  *ok = static_cast<bool>(in);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::vector<Entry> parse_manifest() {
  bool ok = false;
  const std::string text = read_file(std::string(SAFARA_GOLDEN_DIR) + "/MANIFEST", &ok);
  EXPECT_TRUE(ok) << "cannot read " << SAFARA_GOLDEN_DIR << "/MANIFEST";
  std::vector<Entry> entries;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream fields(line);
    Entry e;
    if (fields >> e.kernel >> e.config >> e.opt_level) entries.push_back(e);
  }
  return entries;
}

/// Points at the first line where the two dumps diverge, so a failure log
/// localizes the change without printing both full dumps.
std::string first_diff(const std::string& expected, const std::string& actual) {
  std::istringstream ea(expected), aa(actual);
  std::string el, al;
  int lineno = 1;
  while (true) {
    const bool eok = static_cast<bool>(std::getline(ea, el));
    const bool aok = static_cast<bool>(std::getline(aa, al));
    if (!eok && !aok) return "dumps differ only in trailing bytes";
    if (el != al || eok != aok) {
      std::ostringstream out;
      out << "first difference at line " << lineno << ":\n  golden: "
          << (eok ? el : "<end of file>") << "\n  actual: " << (aok ? al : "<end of file>");
      return out.str();
    }
    ++lineno;
  }
}

TEST(GoldenVir, ManifestIsNonTrivial) {
  const std::vector<Entry> entries = parse_manifest();
  // The suite is only meaningful if it pins both the raw codegen (O0) and
  // the full pipeline (O2) across a spread of kernels.
  EXPECT_GE(entries.size(), 20u);
  int o0 = 0, o2 = 0;
  for (const Entry& e : entries) {
    if (e.opt_level == 0) ++o0;
    if (e.opt_level == 2) ++o2;
  }
  EXPECT_GE(o0, 5);
  EXPECT_GE(o2, 5);
}

TEST(GoldenVir, DumpsMatchSnapshots) {
  const std::vector<Entry> entries = parse_manifest();
  ASSERT_FALSE(entries.empty());
  for (const Entry& e : entries) {
    SCOPED_TRACE(e.kernel + " " + e.config + " O" + std::to_string(e.opt_level));
    bool ok = false;
    const std::string source =
        read_file(std::string(SAFARA_GOLDEN_DIR) + "/" + e.kernel + ".acc", &ok);
    ASSERT_TRUE(ok) << "missing source " << e.kernel << ".acc";
    std::optional<driver::CompilerOptions> opts = driver::named_config(e.config);
    ASSERT_TRUE(opts) << "unknown config '" << e.config << "' in MANIFEST";
    opts->opt_level = e.opt_level;
    driver::Compiler compiler(*opts);
    driver::CompiledProgram prog;
    ASSERT_NO_THROW(prog = compiler.compile(source, "")) << "compile failed";
    const std::string actual = driver::dump_vir(prog);
    const std::string golden_path = std::string(SAFARA_GOLDEN_DIR) + "/" + e.kernel + "." +
                                    e.config + ".O" + std::to_string(e.opt_level) + ".vir";
    const std::string expected = read_file(golden_path, &ok);
    ASSERT_TRUE(ok) << "missing golden " << golden_path
                    << " (run tools/update_golden.py --bless)";
    if (actual != expected) {
      ADD_FAILURE() << first_diff(expected, actual)
                    << "\nif intentional: python3 tools/update_golden.py --bless";
    }
  }
}

// O2 snapshots must never be a superset of the O0 ones: the pipeline only
// deletes or rewrites instructions, so each optimized dump stays no longer
// than its unoptimized sibling.
TEST(GoldenVir, OptimizedDumpsAreNoLonger) {
  const std::vector<Entry> entries = parse_manifest();
  for (const Entry& e : entries) {
    if (e.opt_level != 2) continue;
    bool ok0 = false, ok2 = false;
    const std::string base = std::string(SAFARA_GOLDEN_DIR) + "/" + e.kernel + "." + e.config;
    const std::string o0 = read_file(base + ".O0.vir", &ok0);
    const std::string o2 = read_file(base + ".O2.vir", &ok2);
    if (!ok0 || !ok2) continue;  // pair not pinned; nothing to compare
    EXPECT_LE(std::count(o2.begin(), o2.end(), '\n'),
              std::count(o0.begin(), o0.end(), '\n'))
        << e.kernel << "." << e.config << ": O2 dump grew past the O0 dump";
  }
}

std::string fnv1a_hex(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, h);
  return buf;
}

// The fuzz corpus's optimized VIR, pinned by hash: tools/update_golden.py
// writes one `<seed> <config> <fnv1a64>` line per pair from safcc's
// --dump-vir, plus one `<seed> <config> <cap> <fnv1a64>` line per triple
// compiled with `--max-regs <cap>` (the spilling allocations), and this
// recomputes each hash through driver::dump_vir().
TEST(GoldenVir, FuzzDigestsMatch) {
  bool ok = false;
  const std::string text = read_file(std::string(SAFARA_GOLDEN_DIR) + "/fuzz_vir.digest", &ok);
  ASSERT_TRUE(ok) << "missing fuzz_vir.digest (run tools/update_golden.py --bless)";
  std::istringstream lines(text);
  std::string line;
  int checked = 0, capped = 0;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::uint64_t seed = 0;
    std::string config, expected, hash;
    ASSERT_TRUE(static_cast<bool>(fields >> seed >> config >> expected)) << line;
    int cap = 0;
    if (fields >> hash) {
      cap = std::stoi(expected);
      expected = hash;
      ++capped;
    }
    SCOPED_TRACE("seed " + std::to_string(seed) + " " + config +
                 (cap > 0 ? " cap " + std::to_string(cap) : ""));
    std::optional<driver::CompilerOptions> opts = driver::named_config(config);
    ASSERT_TRUE(opts) << "unknown config '" << config << "' in fuzz_vir.digest";
    if (cap > 0) opts->regalloc.max_registers = cap;
    driver::CompiledProgram prog;
    ASSERT_NO_THROW(prog = driver::Compiler(*opts).compile(fuzz::generate_program(seed)));
    EXPECT_EQ(fnv1a_hex(driver::dump_vir(prog)), expected)
        << "if intentional: python3 tools/update_golden.py --bless";
    ++checked;
  }
  EXPECT_EQ(checked, 400);
  EXPECT_EQ(capped, 200);
}

// The simulator's observable schedule, pinned by hash: tools/update_golden.py
// writes one `<workload> <config> <fnv1a64>` line per pair from the document
// `safcc --workload W --config C --sim-threads 1 --sim-profile-out F` writes,
// and this rebuilds each document the way safcc does. The per-SM and per-pc
// issue and stall attribution and the warp timelines it holds are what a
// scheduler change must leave alone. One sim thread is the cheapest; more
// write the same documents (SimDeterminism.* in test_sim.cpp).
TEST(GoldenSimProfile, DigestsMatch) {
  bool ok = false;
  const std::string text =
      read_file(std::string(SAFARA_GOLDEN_DIR) + "/sim_profile.digest", &ok);
  ASSERT_TRUE(ok) << "missing sim_profile.digest (run tools/update_golden.py --bless)";
  std::istringstream lines(text);
  std::string line;
  int checked = 0;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name, config, expected;
    ASSERT_TRUE(static_cast<bool>(fields >> name >> config >> expected)) << line;
    SCOPED_TRACE(name + " " + config);
    const workloads::Workload* w = workloads::find_workload(name);
    ASSERT_NE(w, nullptr) << "unknown workload '" << name << "' in sim_profile.digest";
    const std::optional<driver::CompilerOptions> opts = driver::named_config(config);
    ASSERT_TRUE(opts) << "unknown config '" << config << "' in sim_profile.digest";
    obs::Collector collector;
    workloads::simulate(*w, *opts, &collector, {.threads = 1});
    const driver::CompiledProgram prog =
        driver::Compiler(*opts).compile(w->source, w->function);
    const obs::json::Value doc = driver::sim_profile_doc(prog, collector, w->name, config);
    EXPECT_EQ(fnv1a_hex(doc.dump(2) + "\n"), expected)
        << "if intentional: python3 tools/update_golden.py --bless";
    // The per-line rollup partitions the attributed cycles exactly.
    std::int64_t line_cycles = 0;
    for (const obs::json::Value& l : doc.find("lines")->items()) {
      line_cycles += l.find("cycles")->as_int();
    }
    EXPECT_EQ(line_cycles, doc.find("total_cycles")->as_int());
    ++checked;
  }
  EXPECT_EQ(checked, 80);
}

}  // namespace
}  // namespace safara

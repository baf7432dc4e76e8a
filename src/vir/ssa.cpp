#include "vir/ssa.hpp"

#include <algorithm>
#include <string>
#include <vector>

#include "vir/cfg.hpp"

namespace safara::vir::ssa {

namespace {

SourceLoc first_valid_loc(const Kernel& k) {
  for (const Instr& in : k.code) {
    if (in.loc.valid()) return in.loc;
  }
  return {};
}

/// Renumbers vregs densely by first appearance in the code (dst, then a, b,
/// c, per instruction). Vregs no longer referenced anywhere are dropped, so
/// the fully-renamed original slots and coalesced-away temps disappear from
/// the register file.
void compact_vregs(Kernel& k) {
  const std::uint32_t nv = k.num_vregs();
  std::vector<std::uint32_t> map(nv, kNoReg);
  std::vector<VType> types;
  std::vector<std::string> names;
  auto touch = [&](std::uint32_t r) {
    if (r == kNoReg || map[r] != kNoReg) return;
    map[r] = static_cast<std::uint32_t>(types.size());
    types.push_back(k.vreg_types[r]);
    names.push_back(k.vreg_names[r]);
  };
  for (const Instr& in : k.code) {
    if (has_dst(in.op)) touch(in.dst);
    touch(in.a);
    touch(in.b);
    touch(in.c);
  }
  for (Instr& in : k.code) {
    if (has_dst(in.op) && in.dst != kNoReg) in.dst = map[in.dst];
    if (in.a != kNoReg) in.a = map[in.a];
    if (in.b != kNoReg) in.b = map[in.b];
    if (in.c != kNoReg) in.c = map[in.c];
  }
  k.vreg_types = std::move(types);
  k.vreg_names = std::move(names);
}

/// Interference-checked coalescing of the copies destruction minted, on the
/// blocks and liveness of `a` (the caller invalidates it afterwards).
/// Interference is the classic def-vs-live-after relation (with the copy
/// exception at movs); two vregs merge when they are copy-related, same
/// type, and share no edge — the storage-sharing argument: at any program
/// point at most one of them is live, so one register holds whichever value
/// is needed.
int coalesce_copies(Kernel& k, const std::vector<char>& candidate, Analyses& a) {
  const std::uint32_t nv = k.num_vregs();
  if (nv == 0) return 0;
  const std::size_t words = (nv + 63) / 64;

  // One bitset row per vreg in a single array.
  std::vector<std::uint64_t> adj(static_cast<std::size_t>(nv) * words, 0);
  auto row = [&](std::uint32_t r) { return adj.data() + static_cast<std::size_t>(r) * words; };
  auto bit = [&](std::uint32_t r, std::uint32_t c) { return (row(r)[c / 64] >> (c % 64)) & 1; };
  auto add_edge = [&](std::uint32_t x, std::uint32_t y) {
    if (x == y) return;
    row(x)[y / 64] |= std::uint64_t{1} << (y % 64);
    row(y)[x / 64] |= std::uint64_t{1} << (x % 64);
  };

  const std::vector<BasicBlock>& blocks = a.blocks();
  const BlockLiveness& lv = a.liveness();
  std::vector<std::uint64_t> cur(words);
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    cur.assign(lv.out(b), lv.out(b) + words);
    for (std::int32_t i = blocks[b].end - 1; i >= blocks[b].begin; --i) {
      const Instr& in = k.code[static_cast<std::size_t>(i)];
      if (has_dst(in.op) && in.dst != kNoReg) {
        const std::uint32_t d = in.dst;
        const std::uint32_t src = in.op == Opcode::kMov ? in.a : kNoReg;
        for (std::size_t w = 0; w < words; ++w) {
          std::uint64_t bits = cur[w];
          while (bits) {
            const std::uint32_t r = static_cast<std::uint32_t>(w * 64) +
                                    static_cast<std::uint32_t>(__builtin_ctzll(bits));
            bits &= bits - 1;
            if (r != d && r != src) add_edge(d, r);
          }
        }
        cur[d / 64] &= ~(std::uint64_t{1} << (d % 64));
      }
      for_each_use(in, [&](std::uint32_t r) {
        cur[r / 64] |= std::uint64_t{1} << (r % 64);
      });
    }
  }

  std::vector<std::uint32_t> parent(nv);
  for (std::uint32_t r = 0; r < nv; ++r) parent[r] = r;
  auto find = [&](std::uint32_t r) {
    while (parent[r] != r) {
      parent[r] = parent[parent[r]];
      r = parent[r];
    }
    return r;
  };

  int merged = 0;
  std::vector<char> dead(k.code.size(), 0);
  for (std::size_t i = 0; i < k.code.size(); ++i) {
    if (!candidate[i]) continue;
    const Instr& in = k.code[i];
    if (in.op != Opcode::kMov || in.dst == kNoReg || in.a == kNoReg) continue;
    const std::uint32_t u = find(in.a);
    const std::uint32_t v = find(in.dst);
    if (u == v) {  // an earlier merge already unified them: the copy is dead
      dead[i] = 1;
      ++merged;
      continue;
    }
    if (k.vreg_types[u] != k.vreg_types[v]) continue;
    if (bit(u, v)) continue;
    // Representative: prefer the vreg with source-variable provenance, then
    // the lower index — keeps `vreg_names` flowing into the merged range.
    std::uint32_t rep = u, other = v;
    const bool u_named = !k.vreg_names[u].empty();
    const bool v_named = !k.vreg_names[v].empty();
    if ((v_named && !u_named) || (u_named == v_named && v < u)) std::swap(rep, other);
    parent[other] = rep;
    // Fold the absorbed range's interference into the representative (a
    // conservative superset of the merged range's true interference).
    for (std::size_t w = 0; w < words; ++w) row(rep)[w] |= row(other)[w];
    for (std::size_t w = 0; w < words; ++w) {
      std::uint64_t bits = row(other)[w];
      while (bits) {
        const std::uint32_t r = static_cast<std::uint32_t>(w * 64) +
                                static_cast<std::uint32_t>(__builtin_ctzll(bits));
        bits &= bits - 1;
        row(r)[rep / 64] |= std::uint64_t{1} << (rep % 64);
      }
    }
    dead[i] = 1;
    ++merged;
  }
  if (merged == 0) return 0;

  for (Instr& in : k.code) {
    if (has_dst(in.op) && in.dst != kNoReg) in.dst = find(in.dst);
    if (in.a != kNoReg) in.a = find(in.a);
    if (in.b != kNoReg) in.b = find(in.b);
    if (in.c != kNoReg) in.c = find(in.c);
  }
  remove_dead(k, dead);
  return merged;
}

}  // namespace

ConstructStats construct(Kernel& k, Analyses& a) {
  ConstructStats stats;
  if (k.code.empty()) return stats;
  const Cfg* cfg = &a.cfg();
  const std::size_t nb = cfg->blocks.size();
  // The entry block has an implicit function-entry edge with no operand
  // slot; if it is also a branch target (a loop rolled all the way up to
  // instruction 0) a phi there could not represent the entry path.
  if (nb == 0 || !cfg->preds[0].empty()) return stats;

  const std::uint32_t nv = k.num_vregs();
  std::vector<int> defs(nv, 0);
  for (const Instr& in : k.code) {
    if (has_dst(in.op) && in.dst != kNoReg) ++defs[in.dst];
  }
  std::vector<char> is_var(nv, 0);
  bool any_var = false;
  for (std::uint32_t r = 0; r < nv; ++r) {
    if (defs[r] >= 2) {
      is_var[r] = 1;
      any_var = true;
    }
  }
  if (!any_var) {
    stats.converted = true;  // already SSA; destruction will just compact
    return stats;
  }

  // Pruned phi placement: iterated dominance frontiers of each slot's def
  // blocks, filtered by block live-in so dead joins get no phi.
  const BlockLiveness& lv = a.liveness();
  std::vector<std::vector<std::uint32_t>> def_blocks_of(nv);
  for (std::size_t b = 0; b < nb; ++b) {
    for (std::int32_t i = cfg->blocks[b].begin; i < cfg->blocks[b].end; ++i) {
      const Instr& in = k.code[static_cast<std::size_t>(i)];
      if (has_dst(in.op) && in.dst != kNoReg && is_var[in.dst]) {
        auto& dbs = def_blocks_of[in.dst];
        if (dbs.empty() || dbs.back() != b) dbs.push_back(static_cast<std::uint32_t>(b));
      }
    }
  }

  std::vector<std::vector<std::uint32_t>> phis_at(nb);
  std::vector<char> placed(nb), queued(nb);
  for (std::uint32_t v = 0; v < nv; ++v) {
    if (!is_var[v]) continue;
    std::fill(placed.begin(), placed.end(), 0);
    std::fill(queued.begin(), queued.end(), 0);
    std::vector<std::uint32_t> work = def_blocks_of[v];
    for (std::uint32_t b : work) queued[b] = 1;
    while (!work.empty()) {
      const std::uint32_t b = work.back();
      work.pop_back();
      for (std::int32_t d : cfg->dom_frontier[b]) {
        const std::size_t db = static_cast<std::size_t>(d);
        if (placed[db] || !lv.live_in_at(db, v)) continue;
        placed[db] = 1;
        phis_at[db].push_back(v);
        if (!queued[db]) {
          queued[db] = 1;
          work.push_back(static_cast<std::uint32_t>(d));
        }
      }
    }
  }

  int total_phis = 0;
  for (std::size_t b = 0; b < nb; ++b) {
    if (phis_at[b].empty()) continue;
    total_phis += static_cast<int>(phis_at[b].size());
    // A VIR instruction has three register operands; a join with more
    // predecessors cannot carry a phi. Bail before mutating anything.
    if (cfg->preds[b].size() > 3 || cfg->preds[b].empty()) return stats;
  }
  stats.converted = true;

  // Insert the phis at their block heads. Labels point at leaders, so every
  // label target is a block begin and maps to the (phi-prefixed) new begin.
  const SourceLoc fallback = first_valid_loc(k);
  if (total_phis > 0) {
    std::vector<Instr> code;
    code.reserve(k.code.size() + static_cast<std::size_t>(total_phis));
    std::vector<std::int32_t> new_begin(nb, 0);
    for (std::size_t b = 0; b < nb; ++b) {
      new_begin[b] = static_cast<std::int32_t>(code.size());
      SourceLoc head = fallback;
      for (std::int32_t i = cfg->blocks[b].begin; i < cfg->blocks[b].end; ++i) {
        if (k.code[static_cast<std::size_t>(i)].loc.valid()) {
          head = k.code[static_cast<std::size_t>(i)].loc;
          break;
        }
      }
      const std::size_t np = cfg->preds[b].size();
      for (std::uint32_t v : phis_at[b]) {
        Instr p;
        p.op = Opcode::kPhi;
        p.type = k.vreg_types[v];
        p.dst = v;  // placeholder; renaming mints the SSA name
        p.a = v;    // operand slots seeded with the slot itself
        p.b = np >= 2 ? v : kNoReg;
        p.c = np >= 3 ? v : kNoReg;
        p.loc = head;
        code.push_back(p);
      }
      for (std::int32_t i = cfg->blocks[b].begin; i < cfg->blocks[b].end; ++i) {
        code.push_back(k.code[static_cast<std::size_t>(i)]);
      }
    }
    const std::int32_t old_n = static_cast<std::int32_t>(k.code.size());
    for (std::int32_t& t : k.labels) {
      if (t < 0) continue;
      if (t >= old_n) {
        t = static_cast<std::int32_t>(code.size());
      } else {
        t = new_begin[static_cast<std::size_t>(cfg->block_of[static_cast<std::size_t>(t)])];
      }
    }
    k.code = std::move(code);
    // Same graph, shifted boundaries: the dominator tree carries over.
    a.invalidate();
    cfg = &a.cfg();
  }
  stats.phis = total_phis;

  // Renaming: preorder walk of the dominator tree with one value stack per
  // slot. Every def mints a fresh vreg (so the original slot is never
  // written post-SSA and remains a sound zero-initialized stand-in for
  // paths that reach a use with no definition), except that same-typed
  // `mov slot, x` defs fold away by pushing `x` directly.
  std::vector<std::vector<std::uint32_t>> stack(nv);
  std::vector<char> dead(k.code.size(), 0);
  auto cur_val = [&](std::uint32_t r) -> std::uint32_t {
    if (r < nv && is_var[r] && !stack[r].empty()) return stack[r].back();
    return r;
  };
  auto mint = [&](std::uint32_t v) {
    const std::uint32_t fresh = k.num_vregs();
    const VType t = k.vreg_types[v];
    const std::string n = k.vreg_names[v];
    k.vreg_types.push_back(t);
    k.vreg_names.push_back(n);
    return fresh;
  };

  struct Frame {
    std::int32_t block = 0;
    std::size_t child = 0;
    bool entered = false;
    std::vector<std::uint32_t> pushed;
  };
  std::vector<Frame> fs;
  fs.emplace_back();
  while (!fs.empty()) {
    Frame& f = fs.back();
    const std::size_t fb = static_cast<std::size_t>(f.block);
    if (!f.entered) {
      f.entered = true;
      const BasicBlock bb = cfg->blocks[fb];
      for (std::int32_t i = bb.begin; i < bb.end; ++i) {
        Instr& in = k.code[static_cast<std::size_t>(i)];
        if (in.op == Opcode::kPhi) {
          const std::uint32_t v = in.dst;
          const std::uint32_t fresh = mint(v);
          in.dst = fresh;
          stack[v].push_back(fresh);
          f.pushed.push_back(v);
          continue;
        }
        if (in.a != kNoReg) in.a = cur_val(in.a);
        if (in.b != kNoReg) in.b = cur_val(in.b);
        if (in.c != kNoReg) in.c = cur_val(in.c);
        if (!has_dst(in.op) || in.dst == kNoReg) continue;
        const std::uint32_t v = in.dst;
        if (v >= nv || !is_var[v]) continue;
        if (in.op == Opcode::kMov && in.a != kNoReg &&
            k.vreg_types[v] == k.vreg_types[in.a]) {
          stack[v].push_back(in.a);
          f.pushed.push_back(v);
          dead[static_cast<std::size_t>(i)] = 1;
          ++stats.copies_folded;
          continue;
        }
        const std::uint32_t fresh = mint(v);
        in.dst = fresh;
        stack[v].push_back(fresh);
        f.pushed.push_back(v);
      }
      // Fill this block's operand slot in every successor phi.
      for (std::int32_t sblk : bb.succs) {
        const std::size_t sb = static_cast<std::size_t>(sblk);
        const auto& sp = cfg->preds[sb];
        const std::size_t pos = static_cast<std::size_t>(
            std::find(sp.begin(), sp.end(), f.block) - sp.begin());
        const BasicBlock& sbb = cfg->blocks[sb];
        for (std::int32_t i = sbb.begin;
             i < sbb.end && k.code[static_cast<std::size_t>(i)].op == Opcode::kPhi; ++i) {
          Instr& p = k.code[static_cast<std::size_t>(i)];
          std::uint32_t& slot = pos == 0 ? p.a : pos == 1 ? p.b : p.c;
          // The seed value in an unfilled slot is the original slot vreg,
          // which doubles as the phi's variable.
          const std::uint32_t v = slot < nv ? slot : kNoReg;
          if (v != kNoReg && is_var[v]) {
            slot = stack[v].empty() ? v : stack[v].back();
          }
        }
      }
    }
    const auto& kids = cfg->dom_children[fb];
    if (f.child < kids.size()) {
      const std::int32_t next = kids[f.child++];
      fs.emplace_back();
      fs.back().block = next;
      continue;
    }
    for (std::size_t i = f.pushed.size(); i-- > 0;) stack[f.pushed[i]].pop_back();
    fs.pop_back();
  }

  if (stats.copies_folded > 0) remove_dead(k, dead);
  a.invalidate();
  return stats;
}

DestructStats destruct(Kernel& k, Analyses& a) {
  DestructStats stats;
  if (k.code.empty()) return stats;
  const Cfg& cfg = a.cfg();
  // Everything below rewrites the code, a failed check included (it leaves
  // the kernel for the caller to revert). `cfg` is read only until the
  // copies go in.
  a.invalidate();
  const std::size_t nb = cfg.blocks.size();
  const SourceLoc fallback = first_valid_loc(k);

  struct Insertion {
    std::int32_t pos = 0;
    /// True when the copy belongs to a fall-through predecessor ending at
    /// `pos`: a label at `pos` starts the *next* block and must shift past
    /// it. False for copies placed before a terminator at `pos`: they belong
    /// to the terminator's own block, and a label there must keep pointing
    /// at them.
    bool shift_label = false;
    Instr instr;
  };
  std::vector<Insertion> ins;
  std::vector<char> was_phi(k.code.size(), 0);

  for (std::size_t b = 0; b < nb; ++b) {
    const BasicBlock& bb = cfg.blocks[b];
    std::int32_t phi_end = bb.begin;
    while (phi_end < bb.end &&
           k.code[static_cast<std::size_t>(phi_end)].op == Opcode::kPhi) {
      ++phi_end;
    }
    for (std::int32_t i = phi_end; i < bb.end; ++i) {
      if (k.code[static_cast<std::size_t>(i)].op == Opcode::kPhi) {
        stats.ok = false;  // a pass broke head-contiguity; revert upstream
        return stats;
      }
    }
    if (phi_end == bb.begin) continue;
    const auto& preds = cfg.preds[b];
    for (std::int32_t pi = bb.begin; pi < phi_end; ++pi) {
      Instr& phi = k.code[static_cast<std::size_t>(pi)];
      const std::size_t nops = phi.c != kNoReg ? 3 : phi.b != kNoReg ? 2 : 1;
      if (nops != preds.size()) {
        // The CFG drifted since construction (a pass emptied a block and
        // merged its neighbours); the operand-to-edge mapping is gone.
        stats.ok = false;
        return stats;
      }
      const std::uint32_t temp = k.num_vregs();
      k.vreg_types.push_back(phi.type);
      k.vreg_names.push_back("");
      for (std::size_t p = 0; p < preds.size(); ++p) {
        const BasicBlock& pb = cfg.blocks[static_cast<std::size_t>(preds[p])];
        const Instr& last = k.code[static_cast<std::size_t>(pb.end) - 1];
        const bool before_term = last.op == Opcode::kBra || last.op == Opcode::kCbr;
        Insertion rec;
        rec.pos = before_term ? pb.end - 1 : pb.end;
        rec.shift_label = !before_term;
        rec.instr.op = Opcode::kMov;
        rec.instr.type = phi.type;
        rec.instr.dst = temp;
        rec.instr.a = p == 0 ? phi.a : p == 1 ? phi.b : phi.c;
        rec.instr.loc = last.loc.valid() ? last.loc
                        : phi.loc.valid() ? phi.loc
                                          : fallback;
        ins.push_back(rec);
        ++stats.copies_inserted;
      }
      // The phi itself becomes the second half of the two-copy scheme.
      phi.op = Opcode::kMov;
      phi.a = temp;
      phi.b = kNoReg;
      phi.c = kNoReg;
      was_phi[static_cast<std::size_t>(pi)] = 1;
    }
  }

  std::vector<char> candidate;
  if (!ins.empty()) {
    // At equal positions, fall-through copies (previous block's edge) come
    // before before-terminator copies (this block's edge), matching the
    // label-shift rule above.
    std::stable_sort(ins.begin(), ins.end(), [](const Insertion& a, const Insertion& b) {
      if (a.pos != b.pos) return a.pos < b.pos;
      return a.shift_label && !b.shift_label;
    });
    const std::int32_t n = static_cast<std::int32_t>(k.code.size());
    std::vector<Instr> code;
    candidate.reserve(k.code.size() + ins.size());
    code.reserve(k.code.size() + ins.size());
    std::size_t next = 0;
    for (std::int32_t i = 0; i <= n; ++i) {
      while (next < ins.size() && ins[next].pos == i) {
        code.push_back(ins[next].instr);
        candidate.push_back(1);
        ++next;
      }
      if (i < n) {
        code.push_back(k.code[static_cast<std::size_t>(i)]);
        candidate.push_back(was_phi[static_cast<std::size_t>(i)]);
      }
    }
    for (std::int32_t& t : k.labels) {
      if (t < 0) continue;
      std::int32_t shift = 0;
      for (const Insertion& r : ins) {
        if (r.pos < t || (r.pos == t && r.shift_label)) ++shift;
      }
      t += shift;
    }
    k.code = std::move(code);
    stats.coalesced = coalesce_copies(k, candidate, a);
  }

  compact_vregs(k);
  a.invalidate();
  return stats;
}

}  // namespace safara::vir::ssa

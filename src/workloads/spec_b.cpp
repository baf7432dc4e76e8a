// SPEC ACCEL-like workloads, part B: 353.clvrleaf, 354.cg, and the two
// Fortran-flavoured applications built on allocatable arrays — 355.seismic
// and 356.sp — where the paper's `dim` clause applies, plus 363.swim.
#include "workloads/workloads_detail.hpp"

namespace safara::workloads::detail {

namespace {
driver::HostArray f32_1d(std::int64_t n) {
  return driver::HostArray::make(ast::ScalarType::kF32, {{0, n}});
}
driver::HostArray i32_1d(std::int64_t n) {
  return driver::HostArray::make(ast::ScalarType::kI32, {{0, n}});
}
driver::HostArray f32_2d(std::int64_t a, std::int64_t b) {
  return driver::HostArray::make(ast::ScalarType::kF32, {{0, a}, {0, b}});
}
driver::HostArray f32_3d(std::int64_t a, std::int64_t b, std::int64_t c) {
  return driver::HostArray::make(ast::ScalarType::kF32, {{0, a}, {0, b}, {0, c}});
}
}  // namespace

// ---------------------------------------------------------------------------
// 353.clvrleaf: CloverLeaf-style hydrodynamics (ideal-gas EOS + advection
// flux), C VLAs. Two offload regions -> two kernels.
// ---------------------------------------------------------------------------
Workload make_spec_clvrleaf() {
  Workload w;
  w.name = "353.clvrleaf";
  w.suite = "SPEC";
  w.description = "CloverLeaf hydro: ideal-gas EOS + mass flux, C VLAs";
  w.function = "clvrleaf";
  w.time_steps = 2;
  w.outputs = {"pressure", "soundspeed", "mass_flux_x"};
  w.source = R"(
void clvrleaf(int y, int x,
              const float density[y][x], const float energy[y][x],
              float pressure[y][x], float soundspeed[y][x],
              const float vol_flux_x[y][x], float mass_flux_x[y][x]) {
  #pragma acc parallel loop gang small(density, energy, pressure, soundspeed)
  for (j = 0; j < y; j++) {
    #pragma acc loop vector(64)
    for (i = 0; i < x; i++) {
      float v = 1.0f / density[j][i];
      pressure[j][i] = 0.4f * density[j][i] * energy[j][i];
      float pe = 0.4f * energy[j][i];
      float pv = pressure[j][i] * v * v;
      soundspeed[j][i] = sqrt(1.4f * (pv + pe * 0.4f));
    }
  }
  #pragma acc parallel loop gang small(density, vol_flux_x, mass_flux_x)
  for (j = 1; j < y; j++) {
    #pragma acc loop vector(64)
    for (i = 1; i < x; i++) {
      mass_flux_x[j][i] = 0.25f * vol_flux_x[j][i]
          * (density[j][i] + density[j][i-1] + density[j-1][i] + density[j-1][i-1]);
    }
  }
}
)";
  const int y = 128, x = 128;
  w.make_dataset = [=] {
    Dataset d;
    for (const char* name : {"density", "energy", "pressure", "soundspeed",
                             "vol_flux_x", "mass_flux_x"}) {
      d.arrays.emplace(name, f32_2d(y, x));
    }
    fill(d.arrays.at("density"), 3531, 0.8, 1.5);
    fill(d.arrays.at("energy"), 3532, 1.0, 2.0);
    fill(d.arrays.at("vol_flux_x"), 3533, -0.5, 0.5);
    d.scalars.emplace("y", rt::ScalarValue::of_i32(y));
    d.scalars.emplace("x", rt::ScalarValue::of_i32(x));
    return d;
  };
  return w;
}

// ---------------------------------------------------------------------------
// 354.cg: CSR sparse matrix-vector product plus a dot-product reduction.
// The x-gather is data-dependent (uncoalesced); row extents vary per thread.
// ---------------------------------------------------------------------------
Workload make_spec_cg() {
  Workload w;
  w.name = "354.cg";
  w.suite = "SPEC";
  w.description = "CSR SpMV + dot product, indirect gather";
  w.function = "cg";
  w.outputs = {"yv", "rho"};
  w.source = R"(
void cg(int nrow, const int *rowptr, const int *col, const float *val,
        const float *xv, float *yv, float *rho) {
  #pragma acc parallel loop gang vector(128) small(rowptr, col, val, xv, yv)
  for (r = 0; r < nrow; r++) {
    float sum = 0.0f;
    int lo = rowptr[r];
    int hi = rowptr[r + 1];
    #pragma acc loop seq
    for (j = lo; j < hi; j++) {
      sum = sum + val[j] * xv[col[j]];
    }
    yv[r] = sum;
  }
  #pragma acc parallel loop gang vector(128) small(yv)
  for (r = 0; r < nrow; r++) {
    rho[0] += yv[r] * yv[r];
  }
}
)";
  const int nrow = 4096, per_row = 16;
  w.make_dataset = [=] {
    Dataset d;
    const std::int64_t nnz = static_cast<std::int64_t>(nrow) * per_row;
    driver::HostArray rowptr = i32_1d(nrow + 1);
    for (int r = 0; r <= nrow; ++r) rowptr.set_int(r, static_cast<std::int64_t>(r) * per_row);
    driver::HostArray col = i32_1d(nnz);
    std::uint64_t s = 354354;
    for (std::int64_t t = 0; t < nnz; ++t) {
      s ^= s << 13;
      s ^= s >> 7;
      s ^= s << 17;
      col.set_int(t, static_cast<std::int64_t>(s % nrow));
    }
    d.arrays.emplace("rowptr", std::move(rowptr));
    d.arrays.emplace("col", std::move(col));
    d.arrays.emplace("val", f32_1d(nnz));
    d.arrays.emplace("xv", f32_1d(nrow));
    d.arrays.emplace("yv", f32_1d(nrow));
    d.arrays.emplace("rho", f32_1d(1));
    fill(d.arrays.at("val"), 3541, -1.0, 1.0);
    fill(d.arrays.at("xv"), 3542, -1.0, 1.0);
    d.scalars.emplace("nrow", rt::ScalarValue::of_i32(nrow));
    return d;
  };
  return w;
}

// ---------------------------------------------------------------------------
// 355.seismic: staggered-grid seismic wave propagation. Nine rank-3
// allocatable arrays share one shape; seven hot kernels (HOT1..HOT7 of
// Table I) update velocities and stresses with distance-1 reuse along the
// sequential z sweep. This is the paper's flagship dim/small target.
// ---------------------------------------------------------------------------
Workload make_spec_seismic() {
  Workload w;
  w.name = "355.seismic";
  w.suite = "SPEC";
  w.description = "seismic wave propagation, 9 same-shape allocatables, 7 hot kernels";
  w.function = "seismic";
  w.outputs = {"vx", "vy", "vz", "sxx", "syy", "szz", "sxy"};
  w.source = R"(
void seismic(int nx, int ny, int nz, float h, float dt,
             float vx[?][?][?], float vy[?][?][?], float vz[?][?][?],
             float sxx[?][?][?], float syy[?][?][?], float szz[?][?][?],
             float sxy[?][?][?], float sxz[?][?][?], float syz[?][?][?]) {
  // HOT1: x-velocity update from stress divergence (k-sweep).
  #pragma acc parallel loop gang(ny/4) vector(4) dim((0:nz, 0:ny, 0:nx)(vx, sxx, sxy, sxz)) small(vx, sxx, sxy, sxz)
  for (j = 1; j < ny - 1; j++) {
    #pragma acc loop gang((nx+61)/62) vector(64)
    for (i = 1; i < nx - 1; i++) {
      #pragma acc loop seq
      for (k = 1; k < nz - 1; k++) {
        vx[k][j][i] = vx[k][j][i] + dt * ((sxx[k][j][i] - sxx[k-1][j][i]) / h
                                        + (sxy[k][j][i] - sxy[k][j-1][i]) / h
                                        + (sxz[k][j][i] - sxz[k][j][i-1]) / h);
      }
    }
  }
  // HOT2: y-velocity update.
  #pragma acc parallel loop gang(ny/4) vector(4) dim((0:nz, 0:ny, 0:nx)(vy, syy, sxy, syz)) small(vy, syy, sxy, syz)
  for (j = 1; j < ny - 1; j++) {
    #pragma acc loop gang((nx+63)/64) vector(64)
    for (i = 1; i < nx - 1; i++) {
      #pragma acc loop seq
      for (k = 1; k < nz - 1; k++) {
        vy[k][j][i] = vy[k][j][i] + dt * ((syy[k][j][i] - syy[k-1][j][i]) / h
                                        + (sxy[k][j][i] - sxy[k][j-1][i]) / h
                                        + (syz[k][j][i] - syz[k][j][i-1]) / h);
      }
    }
  }
  // HOT3: z-velocity update.
  #pragma acc parallel loop gang(ny/4) vector(4) dim((0:nz, 0:ny, 0:nx)(vz, szz, sxz, syz)) small(vz, szz, sxz, syz)
  for (j = 1; j < ny - 1; j++) {
    #pragma acc loop gang((nx+63)/64) vector(64)
    for (i = 1; i < nx - 1; i++) {
      #pragma acc loop seq
      for (k = 1; k < nz - 1; k++) {
        vz[k][j][i] = vz[k][j][i] + dt * ((szz[k][j][i] - szz[k-1][j][i]) / h
                                        + (sxz[k][j][i] - sxz[k][j-1][i]) / h
                                        + (syz[k][j][i] - syz[k][j][i-1]) / h);
      }
    }
  }
  // HOT4: normal stress update -- reads all three velocities (9 arrays live).
  #pragma acc parallel loop gang(ny/4) vector(4) dim((0:nz, 0:ny, 0:nx)(vx, vy, vz, sxx, syy, szz)) small(vx, vy, vz, sxx, syy, szz)
  for (j = 1; j < ny - 1; j++) {
    #pragma acc loop gang((nx+63)/64) vector(64)
    for (i = 1; i < nx - 1; i++) {
      #pragma acc loop seq
      for (k = 1; k < nz - 1; k++) {
        float dvx = (vx[k][j][i] - vx[k-1][j][i]) / h;
        float dvy = (vy[k][j][i] - vy[k][j-1][i]) / h;
        float dvz = (vz[k][j][i] - vz[k][j][i-1]) / h;
        sxx[k][j][i] = sxx[k][j][i] + dt * (2.0f * dvx + 0.5f * (dvy + dvz));
        syy[k][j][i] = syy[k][j][i] + dt * (2.0f * dvy + 0.5f * (dvx + dvz));
        szz[k][j][i] = szz[k][j][i] + dt * (2.0f * dvz + 0.5f * (dvx + dvy));
      }
    }
  }
  // HOT5: xy shear stress.
  #pragma acc parallel loop gang(ny/4) vector(4) dim((0:nz, 0:ny, 0:nx)(vx, vy, sxy)) small(vx, vy, sxy)
  for (j = 1; j < ny - 1; j++) {
    #pragma acc loop gang((nx+63)/64) vector(64)
    for (i = 1; i < nx - 1; i++) {
      #pragma acc loop seq
      for (k = 1; k < nz - 1; k++) {
        sxy[k][j][i] = sxy[k][j][i] + dt * 0.7f * ((vx[k][j+1][i] - vx[k][j][i]) / h
                                                 + (vy[k][j][i+1] - vy[k][j][i]) / h);
      }
    }
  }
  // HOT6: xz shear stress (k-derivatives on both velocities).
  #pragma acc parallel loop gang(ny/4) vector(4) dim((0:nz, 0:ny, 0:nx)(vx, vz, sxz)) small(vx, vz, sxz)
  for (j = 1; j < ny - 1; j++) {
    #pragma acc loop gang((nx+63)/64) vector(64)
    for (i = 1; i < nx - 1; i++) {
      #pragma acc loop seq
      for (k = 1; k < nz - 1; k++) {
        sxz[k][j][i] = sxz[k][j][i] + dt * 0.7f * ((vx[k+1][j][i] - vx[k][j][i]) / h
                                                 + (vz[k][j][i+1] - vz[k][j][i]) / h);
      }
    }
  }
  // HOT7: yz shear stress.
  #pragma acc parallel loop gang(ny/4) vector(4) dim((0:nz, 0:ny, 0:nx)(vy, vz, syz)) small(vy, vz, syz)
  for (j = 1; j < ny - 1; j++) {
    #pragma acc loop gang((nx+63)/64) vector(64)
    for (i = 1; i < nx - 1; i++) {
      #pragma acc loop seq
      for (k = 1; k < nz - 1; k++) {
        syz[k][j][i] = syz[k][j][i] + dt * 0.7f * ((vy[k+1][j][i] - vy[k][j][i]) / h
                                                 + (vz[k][j+1][i] - vz[k][j][i]) / h);
      }
    }
  }
}
)";
  const int nx = 128, ny = 64, nz = 16;
  w.make_dataset = [=] {
    Dataset d;
    int seed = 3550;
    for (const char* name : {"vx", "vy", "vz", "sxx", "syy", "szz", "sxy", "sxz", "syz"}) {
      d.arrays.emplace(name, f32_3d(nz, ny, nx));
      fill(d.arrays.at(name), static_cast<std::uint64_t>(seed++), -0.5, 0.5);
    }
    d.scalars.emplace("nx", rt::ScalarValue::of_i32(nx));
    d.scalars.emplace("ny", rt::ScalarValue::of_i32(ny));
    d.scalars.emplace("nz", rt::ScalarValue::of_i32(nz));
    d.scalars.emplace("h", rt::ScalarValue::of_f32(0.25f));
    d.scalars.emplace("dt", rt::ScalarValue::of_f32(0.01f));
    return d;
  };
  return w;
}

// ---------------------------------------------------------------------------
// 356.sp: scalar pentadiagonal solver. Ten hot kernels over allocatable
// arrays of two distinct shapes; kernels touching several same-shape arrays
// carry a dim clause, single-array kernels do not (the NA rows of Table II).
// Pentadiagonal sweeps give distance-2 reuse along the sequential dimension.
// ---------------------------------------------------------------------------
Workload make_spec_sp() {
  Workload w;
  w.name = "356.sp";
  w.suite = "SPEC";
  w.description = "scalar pentadiagonal solver, 10 hot kernels, 2 shape families";
  w.function = "sp";
  w.outputs = {"u0", "u1", "u2", "rhs0", "rhs1"};
  w.source = R"(
void sp(int nx, int ny, int nz, float dt,
        float u0[?][?][?], float u1[?][?][?], float u2[?][?][?],
        float u3[?][?][?], float u4[?][?][?],
        float rhs0[?][?][?], float rhs1[?][?][?], float rhs2[?][?][?],
        float speed[?][?][?], float rho[?][?][?]) {
  // Arrays are indexed [i][j][k]: the vector loop (i) runs over the slowest
  // dimension, so nearly every access is uncoalesced -- the layout mismatch
  // the paper identifies as 356.sp's real bottleneck.
  // HOT1: single-array pentadiagonal smoothing (dim NA; array is read/write
  // so scalar replacement cannot touch it).
  #pragma acc parallel loop gang small(u0)
  for (j = 1; j < ny - 1; j++) {
    #pragma acc loop gang vector(64)
    for (i = 1; i < nx - 1; i++) {
      #pragma acc loop seq
      for (k = 2; k < nz - 2; k++) {
        u0[i][j][k] = 0.2f * (u0[i][j][k] + u0[i][j][k-1] + u0[i][j][k+1]
                            + u0[i][j][k-2] + u0[i][j][k+2]);
      }
    }
  }
  // HOT2: rhs build from three same-shape arrays (dim applies).
  #pragma acc parallel loop gang dim((0:nx, 0:ny, 0:nz)(rhs0, speed, rho)) small(rhs0, speed, rho)
  for (j = 1; j < ny - 1; j++) {
    #pragma acc loop gang vector(64)
    for (i = 1; i < nx - 1; i++) {
      #pragma acc loop seq
      for (k = 1; k < nz - 1; k++) {
        rhs0[i][j][k] = speed[i][j][k] * (rho[i][j][k] - rho[i][j][k-1])
                      + speed[i][j][k-1] * dt;
      }
    }
  }
  // HOT3: single-array y-sweep (dim NA; read/write). Each point reads its
  // j-1/j-2 neighbours after this sweep updated them and its j+1/j+2
  // neighbours before, so j carries a dependence: j is the sequential loop
  // (as in SP's y-solve), never a gang or vector loop, whose iterations run
  // in no fixed order.
  #pragma acc parallel loop gang small(u1)
  for (k = 1; k < nz - 1; k++) {
    #pragma acc loop gang vector(64)
    for (i = 1; i < nx - 1; i++) {
      #pragma acc loop seq
      for (j = 2; j < ny - 2; j++) {
        u1[i][j][k] = u1[i][j][k] - 0.1f * (u1[i][j-2][k] + u1[i][j+2][k])
                    + 0.05f * (u1[i][j-1][k] + u1[i][j+1][k]);
      }
    }
  }
  // HOT4: two rhs components from a pentadiagonal speed stencil (dim applies).
  #pragma acc parallel loop gang dim((0:nx, 0:ny, 0:nz)(rhs1, rhs2, speed)) small(rhs1, rhs2, speed)
  for (j = 1; j < ny - 1; j++) {
    #pragma acc loop gang vector(64)
    for (i = 1; i < nx - 1; i++) {
      #pragma acc loop seq
      for (k = 2; k < nz - 2; k++) {
        rhs1[i][j][k] = rhs2[i][j][k] + 0.4f * (speed[i][j][k-1] - 2.0f * speed[i][j][k]
                       + speed[i][j][k+1]) + 0.1f * (speed[i][j][k-2] + speed[i][j][k+2]);
      }
    }
  }
  // HOT5: pentadiagonal forward elimination over the five components
  // (dim applies; u2 carries the sequential recurrence).
  #pragma acc parallel loop gang dim((0:nx, 0:ny, 0:nz)(u0, u1, u2, u3, u4)) small(u0, u1, u2, u3, u4)
  for (j = 1; j < ny - 1; j++) {
    #pragma acc loop gang vector(64)
    for (i = 1; i < nx - 1; i++) {
      #pragma acc loop seq
      for (k = 2; k < nz - 2; k++) {
        float fac = 1.0f / (2.0f + u2[i][j][k-1]);
        u2[i][j][k] = fac * (u2[i][j][k] - u1[i][j][k-1] * u3[i][j][k]);
        u0[i][j][k] = u0[i][j][k] + fac * (u1[i][j][k] + u4[i][j][k-1]
                     + u3[i][j][k-1] * u4[i][j][k]);
      }
    }
  }
  // HOT6: pointwise scaling (dim NA, no reuse at all).
  #pragma acc parallel loop gang small(rhs2)
  for (j = 0; j < ny; j++) {
    #pragma acc loop gang vector(64)
    for (i = 0; i < nx; i++) {
      #pragma acc loop seq
      for (k = 0; k < nz; k++) {
        rhs2[i][j][k] = rhs2[i][j][k] * 0.95f + 0.001f;
      }
    }
  }
  // HOT7: y-direction flux: j-offset neighbours do not reuse along the k
  // sweep, so the uncoalesced gathers remain (dim applies).
  #pragma acc parallel loop gang dim((0:nx, 0:ny, 0:nz)(u3, rho, speed)) small(u3, rho, speed)
  for (j = 2; j < ny - 2; j++) {
    #pragma acc loop gang vector(64)
    for (i = 1; i < nx - 1; i++) {
      #pragma acc loop seq
      for (k = 1; k < nz - 1; k++) {
        u3[i][j][k] = u3[i][j][k] + 0.3f * (rho[i][j-1][k] - 2.0f * rho[i][j][k]
                     + rho[i][j+1][k]) * speed[i][j][k] + 0.1f * speed[i][j][k-1];
      }
    }
  }
  // HOT8: the register monster (Table II HOT8) -- seven arrays and many
  // temporaries in one body, with mostly distinct (non-reusable) references.
  #pragma acc parallel loop gang dim((0:nx, 0:ny, 0:nz)(u0, u1, u2, u3, u4, rho, speed)) small(u0, u1, u2, u3, u4, rho, speed)
  for (j = 1; j < ny - 1; j++) {
    #pragma acc loop gang vector(64)
    for (i = 1; i < nx - 1; i++) {
      #pragma acc loop seq
      for (k = 2; k < nz - 2; k++) {
        float r1 = rho[i][j][k];
        float s1 = speed[i][j][k];
        float a0 = u0[i][j-1][k] * r1;
        float a1 = u1[i][j+1][k] * s1;
        float a2 = u2[i-1][j][k] * (r1 - s1);
        float a3 = u3[i+1][j][k] * (r1 + s1);
        float a4 = u0[i][j][k-2] * 0.5f + u1[i][j][k+2] * 0.25f;
        float a5 = u2[i][j][k+1] * 0.125f + u3[i][j][k-1] * 0.0625f;
        u4[i][j][k] = u4[i][j][k] + dt * (a0 + a1 + a2 + a3 + a4 + a5
                     + a0 * a1 - a2 * a3 + a4 * a5);
      }
    }
  }
  // HOT9: four-array z-interpolation (dim applies).
  #pragma acc parallel loop gang dim((0:nx, 0:ny, 0:nz)(rhs0, rhs1, rhs2, rho)) small(rhs0, rhs1, rhs2, rho)
  for (j = 1; j < ny - 1; j++) {
    #pragma acc loop gang vector(64)
    for (i = 1; i < nx - 1; i++) {
      #pragma acc loop seq
      for (k = 1; k < nz - 1; k++) {
        rhs0[i][j][k] = rhs0[i][j][k]
                      + 0.5f * (rhs1[i][j][k-1] + rhs1[i][j][k])
                      + 0.25f * (rhs2[i][j][k-1] + rhs2[i][j][k]) * rho[i][j][k];
      }
    }
  }
  // HOT10: single-array add (dim NA, almost no pressure).
  #pragma acc parallel loop gang small(u2)
  for (j = 0; j < ny; j++) {
    #pragma acc loop gang vector(64)
    for (i = 0; i < nx; i++) {
      #pragma acc loop seq
      for (k = 0; k < nz; k++) {
        u2[i][j][k] = u2[i][j][k] + dt;
      }
    }
  }
}
)";
  const int nx = 64, ny = 48, nz = 20;
  w.make_dataset = [=] {
    Dataset d;
    int seed = 3560;
    for (const char* name :
         {"u0", "u1", "u2", "u3", "u4", "rhs0", "rhs1", "rhs2", "speed", "rho"}) {
      d.arrays.emplace(name, f32_3d(nx, ny, nz));
      fill(d.arrays.at(name), static_cast<std::uint64_t>(seed++), 0.2, 1.0);
    }
    d.scalars.emplace("nx", rt::ScalarValue::of_i32(nx));
    d.scalars.emplace("ny", rt::ScalarValue::of_i32(ny));
    d.scalars.emplace("nz", rt::ScalarValue::of_i32(nz));
    d.scalars.emplace("dt", rt::ScalarValue::of_f32(0.015f));
    return d;
  };
  return w;
}

// ---------------------------------------------------------------------------
// 363.swim: shallow-water 2D stencils (SWIM), C VLAs, three kernels.
// ---------------------------------------------------------------------------
Workload make_spec_swim() {
  Workload w;
  w.name = "363.swim";
  w.suite = "SPEC";
  w.description = "shallow water 2D stencils, C VLAs, 3 kernels";
  w.function = "swim";
  w.time_steps = 2;
  w.outputs = {"cu", "cv", "z", "h"};
  w.source = R"(
void swim(int n, int m,
          const float u[n][m], const float v[n][m], const float p[n][m],
          float cu[n][m], float cv[n][m], float z[n][m], float h[n][m]) {
  #pragma acc parallel loop gang small(u, v, p, cu, cv)
  for (j = 1; j < n; j++) {
    #pragma acc loop vector(64)
    for (i = 1; i < m; i++) {
      cu[j][i] = 0.5f * (p[j][i] + p[j][i-1]) * u[j][i];
      cv[j][i] = 0.5f * (p[j][i] + p[j-1][i]) * v[j][i];
    }
  }
  #pragma acc parallel loop gang small(u, v, p, z)
  for (j = 1; j < n; j++) {
    #pragma acc loop vector(64)
    for (i = 1; i < m; i++) {
      z[j][i] = (4.0f * (v[j][i] - v[j][i-1]) - 4.0f * (u[j][i] - u[j-1][i]))
              / (p[j-1][i-1] + p[j-1][i] + p[j][i] + p[j][i-1]);
    }
  }
  #pragma acc parallel loop gang small(u, v, p, h)
  for (j = 0; j < n - 1; j++) {
    #pragma acc loop vector(64)
    for (i = 0; i < m - 1; i++) {
      h[j][i] = p[j][i] + 0.25f * (u[j][i+1] * u[j][i+1] + u[j][i] * u[j][i]
                                 + v[j+1][i] * v[j+1][i] + v[j][i] * v[j][i]);
    }
  }
}
)";
  const int n = 128, m = 128;
  w.make_dataset = [=] {
    Dataset d;
    for (const char* name : {"u", "v", "p", "cu", "cv", "z", "h"}) {
      d.arrays.emplace(name, f32_2d(n, m));
    }
    fill(d.arrays.at("u"), 3631, -1.0, 1.0);
    fill(d.arrays.at("v"), 3632, -1.0, 1.0);
    fill(d.arrays.at("p"), 3633, 1.0, 2.0);
    d.scalars.emplace("n", rt::ScalarValue::of_i32(n));
    d.scalars.emplace("m", rt::ScalarValue::of_i32(m));
    return d;
  };
  return w;
}

}  // namespace safara::workloads::detail

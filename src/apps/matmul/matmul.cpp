#include "apps/matmul/matmul.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "runtime/api.h"
#include "util/check.h"
#include "util/rng.h"

namespace dfth::apps {
namespace {

bool power_of_two(std::size_t x) { return x != 0 && (x & (x - 1)) == 0; }

/// View over a square sub-block of a row-major matrix with leading
/// dimension `ld`.
struct View {
  double* p;
  std::size_t ld;

  View quad(std::size_t qi, std::size_t qj, std::size_t half) const {
    return View{p + qi * half * ld + qj * half, ld};
  }
};

struct ConstView {
  const double* p;
  std::size_t ld;

  ConstView quad(std::size_t qi, std::size_t qj, std::size_t half) const {
    return ConstView{p + qi * half * ld + qj * half, ld};
  }
};

/// Serial blocked kernel: C += A·B for an n×n block (ikj order for stride-1
/// inner loops). One work annotation covers the whole call.
///
/// Pinned placement: the function starts on a 64-byte boundary and its
/// loops on their own, so the inner loop's address mod 64 no longer moves
/// with whatever code the linker places before it. Unpinned, a 32-byte
/// shift from unrelated runtime code made this kernel 33% slower. Of the
/// four placements mod 64 (4-core Xeon, gcc 12, -O2), 0 ran fastest and 32
/// slowest (~0.60 vs ~0.85 s for a 1024² serial multiply).
__attribute__((aligned(64), optimize("align-loops=64")))
void serial_mult_add(ConstView a, ConstView b, View c, std::size_t n) {
  // Race-detector annotations are per row (the views are strided, so one
  // span per matrix would cover bytes the kernel never touches). C is
  // read-modify-write; the write annotation is the stronger claim.
  for (std::size_t k = 0; k < n; ++k) {
    df_read(b.p + k * b.ld, n * sizeof(double), "matmul/serial_mult_add:B");
  }
  for (std::size_t i = 0; i < n; ++i) {
    const double* arow = a.p + i * a.ld;
    double* crow = c.p + i * c.ld;
    df_read(arow, n * sizeof(double), "matmul/serial_mult_add:A");
    df_write(crow, n * sizeof(double), "matmul/serial_mult_add:C");
    for (std::size_t k = 0; k < n; ++k) {
      const double aik = arow[k];
      const double* brow = b.p + k * b.ld;
      for (std::size_t j = 0; j < n; ++j) crow[j] += aik * brow[j];
    }
  }
  annotate_work(2 * n * n * n);
}

void serial_add(ConstView t, View c, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const double* trow = t.p + i * t.ld;
    double* crow = c.p + i * c.ld;
    df_read(trow, n * sizeof(double), "matmul/serial_add:T");
    df_write(crow, n * sizeof(double), "matmul/serial_add:C");
    for (std::size_t j = 0; j < n; ++j) crow[j] += trow[j];
  }
  annotate_work(n * n);
}

// -- serial divide and conquer ---------------------------------------------
// The serial version performs the eight products sequentially, accumulating
// straight into C (no temporary — this is why the paper's serial program
// peaks at just the input size).
void serial_rec(ConstView a, ConstView b, View c, std::size_t n, std::size_t base) {
  if (n <= base) {
    serial_mult_add(a, b, c, n);
    return;
  }
  const std::size_t h = n / 2;
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t j = 0; j < 2; ++j) {
      View cij = c.quad(i, j, h);
      serial_rec(a.quad(i, 0, h), b.quad(0, j, h), cij, h, base);
      serial_rec(a.quad(i, 1, h), b.quad(1, j, h), cij, h, base);
    }
  }
}

// -- parallel divide and conquer (paper Figure 4) -----------------------------

void parallel_add_rec(ConstView t, View c, std::size_t n, std::size_t base) {
  if (n <= base) {
    serial_add(t, c, n);
    return;
  }
  const std::size_t h = n / 2;
  Thread kids[4];
  int nk = 0;
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t j = 0; j < 2; ++j) {
      ConstView tq = t.quad(i, j, h);
      View cq = c.quad(i, j, h);
      kids[nk++] = spawn([tq, cq, h, base]() -> void* {
        parallel_add_rec(tq, cq, h, base);
        return nullptr;
      });
    }
  }
  for (int i = 0; i < nk; ++i) join(kids[i]);
}

void parallel_rec(ConstView a, ConstView b, View c, std::size_t n, std::size_t base) {
  if (n <= base) {
    serial_mult_add(a, b, c, n);
    return;
  }
  // T = mem_alloc(size * size): the temporary that the FIFO schedule keeps
  // live at every tree level simultaneously.
  auto* tbuf = static_cast<double*>(df_malloc(n * n * sizeof(double)));
  std::fill(tbuf, tbuf + n * n, 0.0);
  annotate_work(n * n / 4);  // zero-fill cost
  View t{tbuf, n};

  const std::size_t h = n / 2;
  struct Job {
    ConstView a, b;
    View c;
  };
  const Job jobs[8] = {
      // Four products accumulate into C's quadrants...
      {a.quad(0, 0, h), b.quad(0, 0, h), c.quad(0, 0, h)},
      {a.quad(0, 0, h), b.quad(0, 1, h), c.quad(0, 1, h)},
      {a.quad(1, 0, h), b.quad(0, 0, h), c.quad(1, 0, h)},
      {a.quad(1, 0, h), b.quad(0, 1, h), c.quad(1, 1, h)},
      // ...and four into T's quadrants.
      {a.quad(0, 1, h), b.quad(1, 0, h), t.quad(0, 0, h)},
      {a.quad(0, 1, h), b.quad(1, 1, h), t.quad(0, 1, h)},
      {a.quad(1, 1, h), b.quad(1, 0, h), t.quad(1, 0, h)},
      {a.quad(1, 1, h), b.quad(1, 1, h), t.quad(1, 1, h)},
  };
  Thread kids[8];
  for (int i = 0; i < 8; ++i) {
    const Job job = jobs[i];
    kids[i] = spawn([job, h, base]() -> void* {
      parallel_rec(job.a, job.b, job.c, h, base);
      return nullptr;
    });
  }
  for (int i = 0; i < 8; ++i) join(kids[i]);

  parallel_add_rec(ConstView{t.p, t.ld}, c, n, base);
  df_free(tbuf);
}

// -- Strassen (threaded) ------------------------------------------------------

/// Dense half-size scratch matrix backed by df_malloc.
struct Scratch {
  double* p;
  std::size_t n;
  explicit Scratch(std::size_t n_in)
      : p(static_cast<double*>(df_malloc(n_in * n_in * sizeof(double)))), n(n_in) {}
  ~Scratch() { df_free(p); }
  Scratch(const Scratch&) = delete;
  Scratch& operator=(const Scratch&) = delete;
  View view() { return View{p, n}; }
  ConstView cview() const { return ConstView{p, n}; }
};

/// dst = a + sign * b over h×h views; annotated as h² ops.
void add_into(ConstView a, ConstView b, View dst, std::size_t h, double sign) {
  for (std::size_t i = 0; i < h; ++i) {
    const double* ar = a.p + i * a.ld;
    const double* br = b.p + i * b.ld;
    double* dr = dst.p + i * dst.ld;
    df_read(ar, h * sizeof(double), "matmul/add_into:A");
    df_read(br, h * sizeof(double), "matmul/add_into:B");
    df_write(dr, h * sizeof(double), "matmul/add_into:dst");
    for (std::size_t j = 0; j < h; ++j) dr[j] = ar[j] + sign * br[j];
  }
  annotate_work(h * h);
}

void strassen_rec(ConstView a, ConstView b, View c, std::size_t n,
                  std::size_t base) {
  if (n <= base) {
    // Base case overwrites: zero then accumulate with the blocked kernel.
    for (std::size_t i = 0; i < n; ++i) {
      std::fill(c.p + i * c.ld, c.p + i * c.ld + n, 0.0);
    }
    serial_mult_add(a, b, c, n);
    return;
  }
  const std::size_t h = n / 2;
  const ConstView a11 = a.quad(0, 0, h), a12 = a.quad(0, 1, h);
  const ConstView a21 = a.quad(1, 0, h), a22 = a.quad(1, 1, h);
  const ConstView b11 = b.quad(0, 0, h), b12 = b.quad(0, 1, h);
  const ConstView b21 = b.quad(1, 0, h), b22 = b.quad(1, 1, h);

  // Seven products M1..M7 into fresh buffers; each product thread owns its
  // two operand temporaries (allocated before the fork, like Figure 4's T).
  Scratch m[7] = {Scratch(h), Scratch(h), Scratch(h), Scratch(h),
                  Scratch(h), Scratch(h), Scratch(h)};
  struct Job {
    ConstView la, lb;   // operands if no temp needed
    int mode;           // bit 0: left is temp, bit 1: right is temp
    ConstView ta1, ta2; // left temp = ta1 + lsign*ta2
    double lsign;
    ConstView tb1, tb2; // right temp = tb1 + rsign*tb2
    double rsign;
  };
  const Job jobs[7] = {
      // M1 = (A11+A22)(B11+B22)
      {a11, b11, 3, a11, a22, 1.0, b11, b22, 1.0},
      // M2 = (A21+A22) B11
      {a11, b11, 1, a21, a22, 1.0, b11, b11, 0.0},
      // M3 = A11 (B12-B22)
      {a11, b11, 2, a11, a11, 0.0, b12, b22, -1.0},
      // M4 = A22 (B21-B11)
      {a22, b11, 2, a11, a11, 0.0, b21, b11, -1.0},
      // M5 = (A11+A12) B22
      {a11, b22, 1, a11, a12, 1.0, b11, b11, 0.0},
      // M6 = (A21-A11)(B11+B12)
      {a11, b11, 3, a21, a11, -1.0, b11, b12, 1.0},
      // M7 = (A12-A22)(B21+B22)
      {a11, b11, 3, a12, a22, -1.0, b21, b22, 1.0},
  };
  Thread kids[7];
  for (int i = 0; i < 7; ++i) {
    const Job& job = jobs[i];
    View mi = m[i].view();
    kids[i] = spawn([job, mi, h, base]() -> void* {
      // Operand temporaries live only as long as the product needs them.
      std::unique_ptr<Scratch> lt, rt;
      ConstView left = job.la, right = job.lb;
      if (job.mode & 1) {
        lt = std::make_unique<Scratch>(h);
        add_into(job.ta1, job.ta2, lt->view(), h, job.lsign);
        left = lt->cview();
      }
      if (job.mode & 2) {
        rt = std::make_unique<Scratch>(h);
        add_into(job.tb1, job.tb2, rt->view(), h, job.rsign);
        right = rt->cview();
      }
      strassen_rec(left, right, mi, h, base);
      return nullptr;
    });
  }
  for (auto& kid : kids) join(kid);

  // C11 = M1+M4-M5+M7, C12 = M3+M5, C21 = M2+M4, C22 = M1-M2+M3+M6.
  View c11 = c.quad(0, 0, h), c12 = c.quad(0, 1, h);
  View c21 = c.quad(1, 0, h), c22 = c.quad(1, 1, h);
  add_into(m[0].cview(), m[3].cview(), c11, h, 1.0);
  add_into(ConstView{c11.p, c11.ld}, m[4].cview(), c11, h, -1.0);
  add_into(ConstView{c11.p, c11.ld}, m[6].cview(), c11, h, 1.0);
  add_into(m[2].cview(), m[4].cview(), c12, h, 1.0);
  add_into(m[1].cview(), m[3].cview(), c21, h, 1.0);
  add_into(m[0].cview(), m[1].cview(), c22, h, -1.0);
  add_into(ConstView{c22.p, c22.ld}, m[2].cview(), c22, h, 1.0);
  add_into(ConstView{c22.p, c22.ld}, m[5].cview(), c22, h, 1.0);
}

}  // namespace

bool matmul_config_valid(const MatmulConfig& cfg) {
  return power_of_two(cfg.n) && power_of_two(cfg.base) && cfg.base <= cfg.n;
}

void matmul_fill(double* a, std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  for (std::size_t i = 0; i < n * n; ++i) a[i] = rng.next_double(-1.0, 1.0);
}

void matmul_serial(const double* a, const double* b, double* c,
                   const MatmulConfig& cfg) {
  DFTH_CHECK(matmul_config_valid(cfg));
  std::fill(c, c + cfg.n * cfg.n, 0.0);
  serial_rec(ConstView{a, cfg.n}, ConstView{b, cfg.n}, View{c, cfg.n}, cfg.n,
             cfg.base);
}

void matmul_threaded(const double* a, const double* b, double* c,
                     const MatmulConfig& cfg) {
  DFTH_CHECK(matmul_config_valid(cfg));
  DFTH_CHECK_MSG(in_runtime(), "matmul_threaded outside dfth::run");
  std::fill(c, c + cfg.n * cfg.n, 0.0);
  parallel_rec(ConstView{a, cfg.n}, ConstView{b, cfg.n}, View{c, cfg.n}, cfg.n,
               cfg.base);
}

void matmul_strassen_threaded(const double* a, const double* b, double* c,
                              const MatmulConfig& cfg) {
  DFTH_CHECK(matmul_config_valid(cfg));
  DFTH_CHECK_MSG(in_runtime(), "matmul_strassen_threaded outside dfth::run");
  strassen_rec(ConstView{a, cfg.n}, ConstView{b, cfg.n}, View{c, cfg.n}, cfg.n,
               cfg.base);
}

double matmul_max_abs_diff(const double* x, const double* y, std::size_t n) {
  double worst = 0.0;
  for (std::size_t i = 0; i < n * n; ++i) {
    worst = std::max(worst, std::fabs(x[i] - y[i]));
  }
  return worst;
}

std::uint64_t matmul_total_ops(const MatmulConfig& cfg) {
  // 2n^3 from the base multiplies plus the add/zero-fill terms of each level.
  std::uint64_t total = 2ull * cfg.n * cfg.n * cfg.n;
  for (std::size_t m = cfg.n; m > cfg.base; m /= 2) {
    // At size m there are (n/m)^3 multiply nodes... but additions happen per
    // node of the *multiply* recursion: each internal node of size m does a
    // zero-fill (m²/4) and an add of m² over its T. Number of internal nodes
    // of size m is 8^(log2(n/m)) = (n/m)^3.
    const std::uint64_t nodes = (cfg.n / m) * (cfg.n / m) * (cfg.n / m);
    total += nodes * (m * m + m * m / 4);
  }
  return total;
}

}  // namespace dfth::apps

// Micro-benchmarks (google-benchmark) for the hand-written kernels behind
// the §3.4 optimizations — the ablation data for DESIGN.md's design
// choices:
//   * fused vs unfused P update (opt3 kernel rewrite)
//   * cached vs recomputed P g (opt3 computation reuse)
//   * fused batched descriptor contraction vs per-atom composed primitives
//   * fused vs composed linear / tanh-backward
//   * the 16-lane tanh body vs the libm tanhf loop it replaced
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstring>

#include "autograd/ops.hpp"
#include "core/rng.hpp"
#include "deepmd/bmm.hpp"
#include "parallel/thread_pool.hpp"
#include "tensor/kernels.hpp"

namespace fekf {
namespace {

namespace op = ag::ops;

std::vector<f64> random_vec(i64 n, u64 seed) {
  Rng rng(seed);
  std::vector<f64> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = rng.gaussian();
  return v;
}

void BM_PUpdateFused(benchmark::State& state) {
  const i64 n = state.range(0);
  auto p = random_vec(kernels::packed_size(n), 1);
  auto k = random_vec(n, 2);
  for (auto _ : state) {
    kernels::p_update_fused(p, k, 0.37, 0.98, n);
    benchmark::DoNotOptimize(p.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_PUpdateFused)->Arg(512)->Arg(2048);

void BM_PUpdateUnfused(benchmark::State& state) {
  const i64 n = state.range(0);
  auto p = random_vec(kernels::packed_size(n), 3);
  auto k = random_vec(n, 4);
  std::vector<f64> scratch(static_cast<std::size_t>(n * n));
  for (auto _ : state) {
    kernels::p_update_unfused(p, k, 0.37, 0.98, scratch, n);
    benchmark::DoNotOptimize(p.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_PUpdateUnfused)->Arg(512)->Arg(2048);

void BM_SymvPg(benchmark::State& state) {
  // The P g product that opt3 caches: one of these is saved per update.
  const i64 n = state.range(0);
  auto p = random_vec(kernels::packed_size(n), 5);
  auto g = random_vec(n, 6);
  std::vector<f64> y(static_cast<std::size_t>(n));
  for (auto _ : state) {
    kernels::symv(p, g, y, n);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_SymvPg)->Arg(512)->Arg(2048);

void BM_DescriptorFusedBmm(benchmark::State& state) {
  // D = A A_<^T over `natoms` blocks via the fused batched kernel.
  const i64 natoms = state.range(0);
  const i64 m = 25, axis = 16, sel = 64;
  Rng rng(7);
  ag::Variable g_mat(Tensor::randn(natoms * sel, m, rng), false);
  ag::Variable r_mat(Tensor::randn(natoms * sel, 4, rng), false);
  for (auto _ : state) {
    ag::Variable a = deepmd::bmm_tn(g_mat, r_mat, sel);
    ag::Variable a_axis = deepmd::block_slice_rows(a, m, 0, axis);
    ag::Variable d = deepmd::bmm_nt(a, a_axis, m, axis);
    benchmark::DoNotOptimize(d.value().data());
  }
}
BENCHMARK(BM_DescriptorFusedBmm)->Arg(32)->Arg(108);

void BM_DescriptorComposedPerAtom(benchmark::State& state) {
  // The same contraction the framework-autograd way: per-atom slices and
  // matmuls (what Figure 7b's baseline bar is made of).
  const i64 natoms = state.range(0);
  const i64 m = 25, axis = 16, sel = 64;
  Rng rng(8);
  ag::Variable g_mat(Tensor::randn(natoms * sel, m, rng), false);
  ag::Variable r_mat(Tensor::randn(natoms * sel, 4, rng), false);
  for (auto _ : state) {
    ag::Variable d;
    for (i64 i = 0; i < natoms; ++i) {
      ag::Variable gi = op::slice_rows(g_mat, i * sel, (i + 1) * sel);
      ag::Variable ri = op::slice_rows(r_mat, i * sel, (i + 1) * sel);
      ag::Variable ai = op::matmul_tn(gi, ri);
      ag::Variable di =
          op::matmul_nt(ai, op::slice_rows(ai, 0, axis));
      ag::Variable row = op::reshape(di, 1, m * axis);
      d = d.defined() ? op::concat_rows(d, row) : row;
    }
    benchmark::DoNotOptimize(d.value().data());
  }
}
BENCHMARK(BM_DescriptorComposedPerAtom)->Arg(32)->Arg(108);

void BM_LinearFused(benchmark::State& state) {
  Rng rng(9);
  ag::Variable x(Tensor::randn(state.range(0), 400, rng), false);
  ag::Variable w(Tensor::randn(400, 50, rng), false);
  ag::Variable b(Tensor::randn(1, 50, rng), false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(op::linear_fused(x, w, b).value().data());
  }
}
BENCHMARK(BM_LinearFused)->Arg(108);

void BM_LinearComposed(benchmark::State& state) {
  Rng rng(10);
  ag::Variable x(Tensor::randn(state.range(0), 400, rng), false);
  ag::Variable w(Tensor::randn(400, 50, rng), false);
  ag::Variable b(Tensor::randn(1, 50, rng), false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(op::linear(x, w, b).value().data());
  }
}
BENCHMARK(BM_LinearComposed)->Arg(108);

void BM_TanhBackwardFused(benchmark::State& state) {
  Rng rng(11);
  Tensor g = Tensor::randn(state.range(0), 50, rng);
  Tensor y = Tensor::randn(state.range(0), 50, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernels::tanh_backward(g, y).data());
  }
}
BENCHMARK(BM_TanhBackwardFused)->Arg(4096);

void BM_TanhBackwardComposed(benchmark::State& state) {
  Rng rng(12);
  Tensor g = Tensor::randn(state.range(0), 50, rng);
  Tensor y = Tensor::randn(state.range(0), 50, rng);
  for (auto _ : state) {
    // g * (1 - y*y) from primitives: mul, neg, add_scalar, mul.
    Tensor y2 = kernels::mul(y, y);
    Tensor one_m = kernels::add_scalar(kernels::neg(y2), 1.0f);
    benchmark::DoNotOptimize(kernels::mul(g, one_m).data());
  }
}
BENCHMARK(BM_TanhBackwardComposed)->Arg(4096);

/// N(0, 1.5) inputs, the scale of the nets' pre-activations.
Tensor tanh_inputs(i64 rows) {
  Rng rng(13);
  return Tensor::randn(rows, 50, rng, 1.5);
}

/// The scalar loop kernels::tanh replaced: one libm tanhf per element.
void libm_tanh(const Tensor& x, Tensor& y) {
  for (i64 i = 0; i < x.numel(); ++i) y.data()[i] = std::tanh(x.data()[i]);
}

void BM_TanhLibm(benchmark::State& state) {
  const Tensor x = tanh_inputs(state.range(0));
  Tensor y(x.rows(), x.cols());
  for (auto _ : state) {
    libm_tanh(x, y);
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * x.numel());
}
BENCHMARK(BM_TanhLibm)->Arg(4096);

void BM_TanhKernel(benchmark::State& state) {
  const Tensor x = tanh_inputs(state.range(0));
  Tensor ref(x.rows(), x.cols());
  libm_tanh(x, ref);
  FEKF_CHECK(std::memcmp(kernels::tanh(x).data(), ref.data(),
                         static_cast<std::size_t>(x.numel()) *
                             sizeof(f32)) == 0,
             "kernels::tanh differs from the libm loop");
  // One thread, so the ratio to BM_TanhLibm is the per-element body's.
  set_num_threads(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernels::tanh(x).data());
  }
  set_num_threads(0);
  state.SetItemsProcessed(state.iterations() * x.numel());
}
BENCHMARK(BM_TanhKernel)->Arg(4096);

}  // namespace
}  // namespace fekf

BENCHMARK_MAIN();

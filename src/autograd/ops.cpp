#include "autograd/ops.hpp"

#include "tensor/kernels.hpp"

namespace fekf::ag::ops {

namespace k = fekf::kernels;

// Closures with several inputs test ag::needs_input_grad(i) and leave the
// slot of an input nobody asked a gradient for undefined, skipping its
// launches (DESIGN.md §8 "needs-grad pruning").

Variable add(const Variable& a, const Variable& b) {
  return Variable::make_op(
      k::add(a.value(), b.value()), "add", {a, b},
      [](const Variable& g) -> std::vector<Variable> { return {g, g}; });
}

Variable sub(const Variable& a, const Variable& b) {
  return Variable::make_op(
      k::sub(a.value(), b.value()), "sub", {a, b},
      [](const Variable& g) -> std::vector<Variable> {
        return {g, needs_input_grad(1) ? neg(g) : Variable{}};
      });
}

Variable mul(const Variable& a, const Variable& b) {
  return Variable::make_op(
      k::mul(a.value(), b.value()), "mul", {a, b},
      [a, b](const Variable& g) -> std::vector<Variable> {
        return {needs_input_grad(0) ? mul(g, b) : Variable{},
                needs_input_grad(1) ? mul(g, a) : Variable{}};
      });
}

Variable neg(const Variable& a) {
  return Variable::make_op(
      k::neg(a.value()), "neg", {a},
      [](const Variable& g) -> std::vector<Variable> { return {neg(g)}; });
}

Variable scale(const Variable& a, f32 alpha) {
  return Variable::make_op(
      k::scale(a.value(), alpha), "scale", {a},
      [alpha](const Variable& g) -> std::vector<Variable> {
        return {scale(g, alpha)};
      });
}

Variable add_scalar(const Variable& a, f32 alpha) {
  return Variable::make_op(
      k::add_scalar(a.value(), alpha), "add_scalar", {a},
      [](const Variable& g) -> std::vector<Variable> { return {g}; });
}

Variable square(const Variable& a) { return mul(a, a); }

Variable tanh(const Variable& a) {
  return Variable::make_op(
      k::tanh(a.value()), "tanh", {a},
      [a](const Variable& g) -> std::vector<Variable> {
        // Composed backward: recompute y, then g * (1 - y^2). Every step is
        // a primitive launch, as a framework autograd would execute it.
        const Variable y = tanh(a);
        const Variable one_minus = add_scalar(neg(square(y)), 1.0f);
        return {mul(g, one_minus)};
      });
}

namespace {

Variable tanh_grad_fused(const Variable& g, const Variable& a,
                         const Tensor& y_t);

/// Zero-launch differentiable handle on a cached y_t = tanh(a): re-emits
/// the tanh_fused node so the forward pass and every closure below share
/// the one activation the forward launch computed (no closure recomputes
/// a forward value, DESIGN.md §8).
Variable tanh_wrap(const Tensor& y_t, const Variable& a) {
  return Variable::make_op(
      y_t, "tanh", {a}, [a, y_t](const Variable& g) -> std::vector<Variable> {
        return {tanh_grad_fused(g, a, y_t)};
      });
}

/// Fused kernel gx = g * (1 - y^2) over the cached y_t as a differentiable
/// op (the backward of tanh_fused; must itself be differentiable for the
/// force loss / EKF force measurement).
Variable tanh_grad_fused(const Variable& g, const Variable& a,
                         const Tensor& y_t) {
  return Variable::make_op(
      k::tanh_backward(g.value(), y_t), "tanh_grad_fused", {g, a},
      [g, a, y_t](const Variable& gout) -> std::vector<Variable> {
        // d/dg = (1 - y^2) ⊙ gout — exactly the fused kernel again.
        Variable grad_g =
            needs_input_grad(0) ? tanh_grad_fused(gout, a, y_t) : Variable{};
        if (!needs_input_grad(1)) return {grad_g, Variable{}};
        // d/da = gout ⊙ g ⊙ (-2 y (1 - y^2)), composed from primitives
        // (this path only runs in double-backward).
        const Variable y = tanh_wrap(y_t, a);
        const Variable one_minus = add_scalar(neg(square(y)), 1.0f);
        Variable grad_a =
            scale(mul(mul(gout, g), mul(y, one_minus)), -2.0f);
        return {grad_g, grad_a};
      });
}

}  // namespace

Variable tanh_fused(const Variable& a) {
  return tanh_wrap(k::tanh(a.value()), a);
}

Variable matmul(const Variable& a, const Variable& b) {
  return Variable::make_op(
      k::matmul(a.value(), b.value()), "matmul", {a, b},
      [a, b](const Variable& g) -> std::vector<Variable> {
        return {needs_input_grad(0) ? matmul_nt(g, b) : Variable{},
                needs_input_grad(1) ? matmul_tn(a, g) : Variable{}};
      });
}

Variable matmul_nt(const Variable& a, const Variable& b) {
  return Variable::make_op(
      k::matmul_nt(a.value(), b.value()), "matmul_nt", {a, b},
      [a, b](const Variable& g) -> std::vector<Variable> {
        // out = a b^T; ga = g b, gb = g^T a.
        return {needs_input_grad(0) ? matmul(g, b) : Variable{},
                needs_input_grad(1) ? matmul_tn(g, a) : Variable{}};
      });
}

Variable matmul_tn(const Variable& a, const Variable& b) {
  return Variable::make_op(
      k::matmul_tn(a.value(), b.value()), "matmul_tn", {a, b},
      [a, b](const Variable& g) -> std::vector<Variable> {
        // out = a^T b; ga = b g^T, gb = a g.
        return {needs_input_grad(0) ? matmul_nt(b, g) : Variable{},
                needs_input_grad(1) ? matmul(a, g) : Variable{}};
      });
}

Variable transpose(const Variable& a) {
  return Variable::make_op(
      k::transpose(a.value()), "transpose", {a},
      [](const Variable& g) -> std::vector<Variable> {
        return {transpose(g)};
      });
}

Variable linear(const Variable& x, const Variable& w, const Variable& bias) {
  return add_rowvec(matmul(x, w), bias);
}

Variable linear_fused(const Variable& x, const Variable& w,
                      const Variable& bias) {
  return Variable::make_op(
      k::linear_fused(x.value(), w.value(), bias.value()), "linear_fused",
      {x, w, bias},
      [x, w](const Variable& g) -> std::vector<Variable> {
        return {needs_input_grad(0) ? matmul_nt(g, w) : Variable{},
                needs_input_grad(1) ? matmul_tn(x, g) : Variable{},
                needs_input_grad(2) ? sum_rows(g) : Variable{}};
      });
}

Variable add_rowvec(const Variable& mat, const Variable& row) {
  return Variable::make_op(
      k::add_rowvec(mat.value(), row.value()), "add_rowvec", {mat, row},
      [](const Variable& g) -> std::vector<Variable> {
        return {g, needs_input_grad(1) ? sum_rows(g) : Variable{}};
      });
}

Variable broadcast_rows(const Variable& row, i64 m) {
  return Variable::make_op(
      k::broadcast_rows(row.value(), m), "broadcast_rows", {row},
      [](const Variable& g) -> std::vector<Variable> {
        return {sum_rows(g)};
      });
}

Variable broadcast_cols(const Variable& col, i64 n) {
  return Variable::make_op(
      k::broadcast_cols(col.value(), n), "broadcast_cols", {col},
      [](const Variable& g) -> std::vector<Variable> {
        return {sum_cols(g)};
      });
}

Variable broadcast_full(const Variable& scalar, i64 m, i64 n) {
  return Variable::make_op(
      k::broadcast_full(scalar.value(), m, n), "broadcast_full", {scalar},
      [](const Variable& g) -> std::vector<Variable> {
        return {sum_all(g)};
      });
}

Variable sum_all(const Variable& a) {
  const i64 m = a.rows(), n = a.cols();
  return Variable::make_op(
      k::sum_all(a.value()), "sum_all", {a},
      [m, n](const Variable& g) -> std::vector<Variable> {
        return {broadcast_full(g, m, n)};
      });
}

Variable mean_all(const Variable& a) {
  return scale(sum_all(a), 1.0f / static_cast<f32>(a.numel()));
}

Variable sum_rows(const Variable& a) {
  const i64 m = a.rows();
  return Variable::make_op(
      k::sum_rows(a.value()), "sum_rows", {a},
      [m](const Variable& g) -> std::vector<Variable> {
        return {broadcast_rows(g, m)};
      });
}

Variable sum_cols(const Variable& a) {
  const i64 n = a.cols();
  return Variable::make_op(
      k::sum_cols(a.value()), "sum_cols", {a},
      [n](const Variable& g) -> std::vector<Variable> {
        return {broadcast_cols(g, n)};
      });
}

Variable slice_cols(const Variable& a, i64 c0, i64 c1) {
  const i64 cols = a.cols();
  return Variable::make_op(
      k::slice_cols(a.value(), c0, c1), "slice_cols", {a},
      [cols, c0](const Variable& g) -> std::vector<Variable> {
        return {pad_cols(g, cols, c0)};
      });
}

Variable pad_cols(const Variable& a, i64 cols, i64 c0) {
  const i64 w = a.cols();
  return Variable::make_op(
      k::pad_cols(a.value(), cols, c0), "pad_cols", {a},
      [c0, w](const Variable& g) -> std::vector<Variable> {
        return {slice_cols(g, c0, c0 + w)};
      });
}

Variable slice_rows(const Variable& a, i64 r0, i64 r1) {
  const i64 rows = a.rows();
  return Variable::make_op(
      k::slice_rows(a.value(), r0, r1), "slice_rows", {a},
      [rows, r0](const Variable& g) -> std::vector<Variable> {
        return {pad_rows(g, rows, r0)};
      });
}

Variable pad_rows(const Variable& a, i64 rows, i64 r0) {
  const i64 h = a.rows();
  return Variable::make_op(
      k::pad_rows(a.value(), rows, r0), "pad_rows", {a},
      [r0, h](const Variable& g) -> std::vector<Variable> {
        return {slice_rows(g, r0, r0 + h)};
      });
}

Variable concat_rows(const Variable& a, const Variable& b) {
  const i64 ma = a.rows(), mb = b.rows();
  return Variable::make_op(
      k::concat_rows(a.value(), b.value()), "concat_rows", {a, b},
      [ma, mb](const Variable& g) -> std::vector<Variable> {
        return {needs_input_grad(0) ? slice_rows(g, 0, ma) : Variable{},
                needs_input_grad(1) ? slice_rows(g, ma, ma + mb) : Variable{}};
      });
}

Variable reshape(const Variable& a, i64 rows, i64 cols) {
  const i64 ar = a.rows(), ac = a.cols();
  return Variable::make_op(
      a.value().reshaped(rows, cols), "reshape", {a},
      [ar, ac](const Variable& g) -> std::vector<Variable> {
        return {reshape(g, ar, ac)};
      });
}

}  // namespace fekf::ag::ops

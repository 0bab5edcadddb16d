// Tape-based reverse-mode automatic differentiation with support for
// higher-order derivatives ("double backward").
//
// Why double backward matters here: DeePMD fits *forces*, and a force is
// itself a gradient, F = -dE/dr. Any loss (or EKF measurement) built from F
// must be differentiated w.r.t. the network weights, i.e. we differentiate
// through a backward pass. The engine achieves this the same way PyTorch
// does: each op's backward is expressed as a composition of differentiable
// ops, so running backward with `create_graph = true` produces gradients
// that are themselves graph nodes.
//
// A Variable is a cheap shared handle {Tensor value, optional producer
// Node}. Nodes own their input Variables (keeping the upstream graph alive)
// and a backward closure; outputs never back-reference their node, so the
// graph is an acyclic ownership DAG and frees itself when the root dies.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"

namespace fekf::ag {

class Variable;

/// Backward closure: grad w.r.t. the node's output -> grads w.r.t. each
/// input (an undefined Variable means "no gradient for this input").
using BackwardFn =
    std::function<std::vector<Variable>(const Variable& grad_out)>;

struct Node {
  std::string op_name;
  std::vector<Variable> inputs;
  BackwardFn backward;
};

struct VarImpl {
  Tensor value;
  bool requires_grad = false;
  std::shared_ptr<Node> node;  // producer; null for leaves
};

class Variable {
 public:
  Variable() = default;

  /// Wrap a tensor as a leaf.
  explicit Variable(Tensor value, bool requires_grad = false);

  bool defined() const { return impl_ != nullptr; }
  const Tensor& value() const;
  bool requires_grad() const { return impl_ && impl_->requires_grad; }

  i64 rows() const { return value().rows(); }
  i64 cols() const { return value().cols(); }
  i64 numel() const { return value().numel(); }
  f32 item() const { return value().item(); }

  /// Same value, severed from the graph.
  Variable detach() const;

  /// Identity of the underlying variable (used as a map key in backward).
  const VarImpl* key() const { return impl_.get(); }
  const std::shared_ptr<Node>& node() const;

  /// In-place overwrite of a leaf's data (optimizer weight updates). The
  /// tensor storage is reused so existing graphs are unaffected only if the
  /// caller has already released them — the trainers guarantee this by
  /// stepping between iterations.
  void set_value(const Tensor& t);

  /// Construct an op output. Respects the thread-local NoGradGuard: when
  /// grads are disabled or no input requires grad, the node is dropped and
  /// the result is a constant. This is the single entry point custom ops
  /// (descriptor kernels, apply-Jacobian) use to join the tape.
  static Variable make_op(Tensor value, std::string op_name,
                          std::vector<Variable> inputs, BackwardFn backward);

 private:
  std::shared_ptr<VarImpl> impl_;
};

/// Thread-local switch disabling graph construction (inference /
/// plain-backward accumulation).
class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

 private:
  bool previous_;
};

bool grad_enabled();

/// Whether the backward closure grad() is running needs the gradient of
/// its node's input `i`. grad() prunes the tape to the nodes from which
/// some `wrt` entry is reachable and scopes a per-node mask around each
/// closure call (restored on exit, exceptions included); closures skip the
/// launches for inputs whose gradient nobody asked for and return an
/// undefined Variable in their slot. True outside grad(), so a closure
/// invoked directly computes every input's gradient.
bool needs_input_grad(std::size_t i);

/// Reverse-mode gradient of `root` (any shape; `grad_root` defaults to
/// ones) with respect to each Variable in `wrt`.
///
/// With `create_graph == true` the returned gradients carry their own tape
/// and can be differentiated again (used for forces and the force loss).
/// Variables in `wrt` that the root does not depend on yield zero tensors.
/// Only nodes on a path from some `wrt` entry to the root run their
/// closure, and only the gradients of such paths are formed; each needed
/// gradient still sums the same contributions in the same order, so the
/// pruning never changes a returned value.
///
/// Per-term split. A root that is a run of single-input nodes over a left
/// fold of `add`s, `c(add(...add(add(t0, t1), t2)..., tn))` (every batched
/// measurement and Adam's batch loss), runs c and the adds on the caller
/// and then each term's reverse sweep as one parallel_for task, whose
/// kernels run inline. Terms that share an interior node, or a leaf term,
/// stay in one task with every earlier term under their common add. A
/// task records the gradients reaching leaves in the order it forms them;
/// the caller folds those lists from tn down to t0 with the same
/// ops::add, which is the serial sweep's order, so every result is bit for
/// bit the serial one. The serial sweep runs instead when fewer than two
/// terms remain, num_threads() is 1, the call is inside a parallel region,
/// `create_graph` is set, or a `wrt` entry has a producer node.
std::vector<Variable> grad(const Variable& root,
                           std::span<const Variable> wrt,
                           const Variable& grad_root = {},
                           bool create_graph = false);

}  // namespace fekf::ag

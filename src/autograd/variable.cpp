#include "autograd/variable.hpp"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "autograd/ops.hpp"

namespace fekf::ag {

namespace {

thread_local bool t_grad_enabled = true;

/// needs_input_grad() mask of the closure grad() is running on this
/// thread; null outside grad().
thread_local const std::vector<char>* t_needs_mask = nullptr;

/// Installs a closure's needs-mask for its call and restores the previous
/// one on scope exit, so a throwing closure cannot leak its mask.
class NeedsMaskScope {
 public:
  explicit NeedsMaskScope(const std::vector<char>* mask)
      : previous_(t_needs_mask) {
    t_needs_mask = mask;
  }
  ~NeedsMaskScope() { t_needs_mask = previous_; }
  NeedsMaskScope(const NeedsMaskScope&) = delete;
  NeedsMaskScope& operator=(const NeedsMaskScope&) = delete;

 private:
  const std::vector<char>* previous_;
};

}  // namespace

Variable::Variable(Tensor value, bool requires_grad)
    : impl_(std::make_shared<VarImpl>()) {
  impl_->value = std::move(value);
  impl_->requires_grad = requires_grad;
}

const Tensor& Variable::value() const {
  FEKF_CHECK(impl_ != nullptr, "value() on undefined Variable");
  return impl_->value;
}

Variable Variable::detach() const {
  FEKF_CHECK(impl_ != nullptr, "detach() on undefined Variable");
  return Variable(impl_->value, /*requires_grad=*/false);
}

const std::shared_ptr<Node>& Variable::node() const {
  static const std::shared_ptr<Node> kNull;
  return impl_ ? impl_->node : kNull;
}

void Variable::set_value(const Tensor& t) {
  FEKF_CHECK(impl_ != nullptr, "set_value() on undefined Variable");
  FEKF_CHECK(impl_->value.same_shape(t), "set_value shape mismatch");
  std::copy_n(t.data(), t.numel(), impl_->value.data());
}

Variable Variable::make_op(Tensor value, std::string op_name,
                           std::vector<Variable> inputs, BackwardFn backward) {
  const bool any_grad =
      t_grad_enabled &&
      std::any_of(inputs.begin(), inputs.end(),
                  [](const Variable& v) { return v.requires_grad(); });
  Variable out(std::move(value), any_grad);
  if (any_grad) {
    auto node = std::make_shared<Node>();
    node->op_name = std::move(op_name);
    node->inputs = std::move(inputs);
    node->backward = std::move(backward);
    out.impl_->node = std::move(node);
  }
  return out;
}

NoGradGuard::NoGradGuard() : previous_(t_grad_enabled) {
  t_grad_enabled = false;
}

NoGradGuard::~NoGradGuard() { t_grad_enabled = previous_; }

bool grad_enabled() { return t_grad_enabled; }

bool needs_input_grad(std::size_t i) {
  if (t_needs_mask == nullptr) return true;
  FEKF_CHECK(i < t_needs_mask->size(),
             "needs_input_grad: input index " + std::to_string(i) +
                 " out of range");
  return (*t_needs_mask)[i] != 0;
}

std::vector<Variable> grad(const Variable& root,
                           std::span<const Variable> wrt,
                           const Variable& grad_root, bool create_graph) {
  FEKF_CHECK(root.defined(), "grad(): undefined root");
  FEKF_CHECK(root.requires_grad(),
             "grad(): root does not require grad — nothing to differentiate");

  // Topological order of variables reachable from the root (inputs first).
  std::vector<Variable> topo;
  {
    std::unordered_set<const VarImpl*> visited;
    // Iterative post-order DFS to survive deep graphs.
    struct Frame {
      Variable var;
      std::size_t next_input = 0;
    };
    std::vector<Frame> stack;
    stack.push_back({root});
    visited.insert(root.key());
    while (!stack.empty()) {
      Frame& frame = stack.back();
      const auto& node = frame.var.node();
      if (node && frame.next_input < node->inputs.size()) {
        const Variable& input = node->inputs[frame.next_input++];
        if (input.defined() && input.requires_grad() &&
            !visited.count(input.key())) {
          visited.insert(input.key());
          stack.push_back({input});
        }
      } else {
        topo.push_back(frame.var);
        stack.pop_back();
      }
    }
  }

  // Variables some `wrt` entry is reachable from. topo lists inputs first,
  // so one forward pass decides every node after its inputs. Only these
  // run their closure, and only their gradients are accumulated.
  std::unordered_set<const VarImpl*> needed;
  for (const Variable& w : wrt) needed.insert(w.key());
  for (const Variable& var : topo) {
    const auto& node = var.node();
    if (!node || needed.count(var.key())) continue;
    for (const Variable& input : node->inputs) {
      if (input.defined() && needed.count(input.key())) {
        needed.insert(var.key());
        break;
      }
    }
  }

  std::unordered_map<const VarImpl*, Variable> grads;
  {
    Variable seed = grad_root;
    if (!seed.defined()) {
      seed = Variable(Tensor::full(root.rows(), root.cols(), 1.0f));
    }
    FEKF_CHECK(seed.value().same_shape(root.value()),
               "grad_root shape must match root");
    grads[root.key()] = seed;
  }

  // Without create_graph, run accumulation ops outside the tape.
  std::unique_ptr<NoGradGuard> guard;
  if (!create_graph) guard = std::make_unique<NoGradGuard>();

  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const Variable& var = *it;
    const auto& node = var.node();
    if (!node || !needed.count(var.key())) continue;
    auto found = grads.find(var.key());
    if (found == grads.end()) continue;  // unreached branch
    const Variable grad_out = found->second;
    std::vector<char> mask(node->inputs.size(), 0);
    for (std::size_t i = 0; i < mask.size(); ++i) {
      const Variable& input = node->inputs[i];
      mask[i] = input.defined() && input.requires_grad() &&
                needed.count(input.key());
    }
    std::vector<Variable> input_grads;
    {
      NeedsMaskScope scope(&mask);
      input_grads = node->backward(grad_out);
    }
    FEKF_CHECK(input_grads.size() == node->inputs.size(),
               "op '" + node->op_name + "' backward returned " +
                   std::to_string(input_grads.size()) + " grads for " +
                   std::to_string(node->inputs.size()) + " inputs");
    for (std::size_t i = 0; i < input_grads.size(); ++i) {
      const Variable& input = node->inputs[i];
      Variable& g = input_grads[i];
      if (!mask[i] || !g.defined()) continue;
      FEKF_CHECK(g.value().same_shape(input.value()),
                 "op '" + node->op_name + "' backward grad #" +
                     std::to_string(i) + " shape " + g.value().shape_str() +
                     " != input shape " + input.value().shape_str());
      auto existing = grads.find(input.key());
      if (existing == grads.end()) {
        grads.emplace(input.key(), g);
      } else {
        existing->second = ops::add(existing->second, g);
      }
    }
  }

  std::vector<Variable> result;
  result.reserve(wrt.size());
  for (const Variable& w : wrt) {
    auto found = grads.find(w.key());
    if (found != grads.end()) {
      result.push_back(found->second);
    } else {
      result.push_back(Variable(Tensor::zeros(w.rows(), w.cols())));
    }
  }
  return result;
}

}  // namespace fekf::ag

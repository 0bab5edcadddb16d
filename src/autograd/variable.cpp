#include "autograd/variable.hpp"

#include <algorithm>
#include <limits>
#include <unordered_map>
#include <unordered_set>

#include "autograd/ops.hpp"
#include "parallel/thread_pool.hpp"

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

namespace {

using GradMap = std::unordered_map<const VarImpl*, Variable>;
using NodeSet = std::unordered_set<const VarImpl*>;
/// (leaf, gradient) pairs in the order a sweep formed them.
using LeafLog = std::vector<std::pair<const VarImpl*, Variable>>;
/// Which term first reached a variable; doubles as the DFS visited set.
using OwnerMap = std::unordered_map<const VarImpl*, std::size_t>;

constexpr std::size_t kNoTerm = std::numeric_limits<std::size_t>::max();

/// Appends the requires-grad variables reachable from `from` that `owner`
/// has not seen yet to `topo`, inputs first, and marks them as `term`'s.
/// Returns the lowest other term owning an interior node this walk reached,
/// kNoTerm if none. Iterative post-order DFS, so deep graphs cannot
/// overflow the stack.
std::size_t post_order(const Variable& from, std::size_t term,
                       OwnerMap& owner, std::vector<Variable>& topo) {
  std::size_t shared = kNoTerm;
  struct Frame {
    Variable var;
    std::size_t next_input = 0;
  };
  const auto [root_it, root_fresh] = owner.emplace(from.key(), term);
  if (!root_fresh) return from.node() ? root_it->second : kNoTerm;
  std::vector<Frame> stack;
  stack.push_back({from});
  while (!stack.empty()) {
    Frame& frame = stack.back();
    const auto& node = frame.var.node();
    if (node && frame.next_input < node->inputs.size()) {
      const Variable& input = node->inputs[frame.next_input++];
      if (!input.defined() || !input.requires_grad()) continue;
      const auto [it, fresh] = owner.emplace(input.key(), term);
      if (fresh) {
        stack.push_back({input});
      } else if (input.node() && it->second != term) {
        shared = std::min(shared, it->second);
      }
    } else {
      topo.push_back(frame.var);
      stack.pop_back();
    }
  }
  return shared;
}

/// Adds to `needed` every node of `topo` (inputs first) from which some
/// variable already in `needed` is reachable.
void mark_needed(std::span<const Variable> topo, NodeSet& needed) {
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
}

void accumulate(GradMap& grads, const VarImpl* key, const Variable& g) {
  auto existing = grads.find(key);
  if (existing == grads.end()) {
    grads.emplace(key, g);
  } else {
    existing->second = ops::add(existing->second, g);
  }
}

/// The reverse sweep: runs the closure of every needed node of `topo`
/// (inputs first, so walked back to front) that `grads` holds a gradient
/// for, and accumulates what it returns into `grads`. With a `leaf_log`,
/// gradients reaching leaves are appended to it in formation order instead
/// of summed, so a caller can fold several sweeps' logs in the serial
/// order.
void sweep(std::span<const Variable> topo, const NodeSet& needed,
           GradMap& grads, LeafLog* leaf_log) {
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
      if (leaf_log != nullptr && !input.node()) {
        leaf_log->emplace_back(input.key(), g);
      } else {
        accumulate(grads, input.key(), g);
      }
    }
  }
}

bool is_fold_add(const Variable& v) {
  const auto& node = v.node();
  return node && node->op_name == "add" && node->inputs.size() == 2 &&
         node->inputs[0].requires_grad() && node->inputs[1].requires_grad();
}

/// A root split into a caller-side chain and independent terms.
struct Split {
  std::vector<Variable> chain;                ///< inputs first
  std::vector<Variable> terms;                ///< last fold term first
  std::vector<std::vector<Variable>> topos;   ///< each term's, inputs first
};

/// Splits `root` = c(add(...add(add(t0, t1), t2)..., tn)), where c is a
/// run of single-input nodes, into the chain (c and the spine adds, which
/// the caller runs) and the terms tn, ..., t0, each with its own
/// topological order. Where terms share an interior node or a term is a
/// leaf, the latest term involved and every earlier one stay together
/// under their spine add as one term, so the interior nodes of the terms
/// left are disjoint. Fewer than two terms means nothing splits.
Split split_fold(const Variable& root) {
  Split split;
  Variable v = root;
  while (v.node() && v.node()->inputs.size() == 1 &&
         v.node()->inputs[0].requires_grad()) {
    split.chain.push_back(v);
    v = v.node()->inputs[0];
  }
  std::vector<Variable> spine;  // spine[k] = add(spine[k + 1], terms[k])
  while (is_fold_add(v)) {
    spine.push_back(v);
    split.terms.push_back(v.node()->inputs[1]);
    v = v.node()->inputs[0];
  }
  if (spine.empty()) return split;
  spine.push_back(v);
  split.terms.push_back(v);
  // Serial disjointness check, latest term first (the serial sweep's
  // order). Terms cut.. end up as the one term spine[cut]; a leaf term
  // must sit below a spine add, whose closure then reaches it in order.
  const std::size_t last = split.terms.size() - 1;
  std::size_t cut = last;
  OwnerMap owner;
  split.topos.resize(split.terms.size());
  for (std::size_t k = 0; k <= last; ++k) {
    if (!split.terms[k].node()) cut = std::min({cut, k, last - 1});
    cut = std::min(cut, post_order(split.terms[k], k, owner, split.topos[k]));
  }
  // A spine add that some term reaches sits under that term too.
  for (std::size_t m = 1; m < last; ++m) {
    const auto it = owner.find(spine[m].key());
    if (it != owner.end()) cut = std::min(cut, it->second);
  }
  if (cut < last) {
    split.terms.resize(cut + 1);
    split.terms[cut] = spine[cut];
    split.topos.resize(cut + 1);
    split.topos[cut].clear();
    OwnerMap fresh;
    post_order(spine[cut], 0, fresh, split.topos[cut]);
  }
  split.chain.insert(split.chain.end(), spine.begin(), spine.begin() + cut);
  std::reverse(split.chain.begin(), split.chain.end());
  return split;
}

}  // namespace

std::vector<Variable> grad(const Variable& root,
                           std::span<const Variable> wrt,
                           const Variable& grad_root, bool create_graph) {
  FEKF_CHECK(root.defined(), "grad(): undefined root");
  FEKF_CHECK(root.requires_grad(),
             "grad(): root does not require grad — nothing to differentiate");

  GradMap grads;
  {
    Variable seed = grad_root;
    if (!seed.defined()) {
      seed = Variable(Tensor::full(root.rows(), root.cols(), 1.0f));
    }
    FEKF_CHECK(seed.value().same_shape(root.value()),
               "grad_root shape must match root");
    grads[root.key()] = seed;
  }
  // Only variables some `wrt` entry is reachable from run their closure,
  // and only their gradients are accumulated.
  NodeSet needed;
  for (const Variable& w : wrt) needed.insert(w.key());

  // Without create_graph, run accumulation ops outside the tape.
  std::unique_ptr<NoGradGuard> guard;
  if (!create_graph) guard = std::make_unique<NoGradGuard>();

  const bool may_split =
      !create_graph && num_threads() > 1 && !in_parallel_region() &&
      std::none_of(wrt.begin(), wrt.end(),
                   [](const Variable& w) { return w.node() != nullptr; });
  Split split;
  if (may_split) split = split_fold(root);
  if (split.terms.size() > 1) {
    for (const auto& topo : split.topos) mark_needed(topo, needed);
    mark_needed(split.chain, needed);
    sweep(split.chain, needed, grads, nullptr);
    // One task per term, its kernels inline. Each records its leaf
    // gradients; folding the logs latest term first repeats the serial
    // sweep's accumulation exactly (DESIGN.md "Threading & determinism").
    std::vector<LeafLog> logs(split.terms.size());
    parallel_for(0, static_cast<i64>(split.terms.size()), [&](i64 k) {
      const auto t = static_cast<std::size_t>(k);
      const auto found = grads.find(split.terms[t].key());
      if (found == grads.end()) return;
      NoGradGuard task_guard;
      GradMap local{{found->first, found->second}};
      sweep(split.topos[t], needed, local, &logs[t]);
    });
    for (const LeafLog& log : logs) {
      for (const auto& [leaf, g] : log) accumulate(grads, leaf, g);
    }
  } else {
    // Topological order of variables reachable from the root, inputs
    // first; the reverse of it is the serial sweep.
    std::vector<Variable> topo;
    OwnerMap visited;
    post_order(root, 0, visited, topo);
    mark_needed(topo, needed);
    sweep(topo, needed, grads, nullptr);
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

#include "lb/protocol_round.h"

#include <algorithm>

#include "ktree/protocol.h"
#include "obs/profiler.h"

namespace p2plb::lb {

namespace {

// Wire sizes (bytes per message class) for the byte accounting.
constexpr double kLbiBytes = 24.0;     // one <L, C, L_min> triple
constexpr double kRecordBytes = 32.0;  // one heavy/light VSA record
constexpr double kNotifyBytes = 16.0;  // rendezvous -> endpoint notification
// Phase-4 payload per unit of load moved: a transfer's bytes are its
// assignment's load times this.
constexpr double kTransferBytesPerLoad = 1.0;

}  // namespace

sim::Endpoint node_endpoint(const chord::Ring& ring, chord::NodeIndex node) {
  const std::uint32_t attachment = ring.node(node).attachment;
  return attachment != chord::Node::kNoAttachment ? attachment : node;
}

std::vector<sim::Endpoint> host_endpoints(const ktree::KTree& tree) {
  const chord::Ring& ring = tree.ring();
  std::vector<sim::Endpoint> host(tree.size());
  for (ktree::KtIndex i = 0; i < tree.size(); ++i)
    host[i] = node_endpoint(ring, ring.server_owner(tree.node(i).host_vs));
  return host;
}

ProtocolRound::ProtocolRound(sim::Network& net, chord::Ring& ring,
                             const ProtocolRoundConfig& config, Rng& rng,
                             std::span<const chord::Key> node_keys)
    : net_(net),
      ring_(ring),
      config_(config),
      tree_(ring, config.balancer.tree_degree) {
  const BalancerConfig& bal = config_.balancer;
  P2PLB_REQUIRE(bal.epsilon >= 0.0);
  P2PLB_REQUIRE_MSG(
      bal.mode == BalanceMode::kProximityIgnorant || !node_keys.empty(),
      "proximity-aware balancing needs per-node Hilbert keys");

  // Decide everything up front, consuming rng exactly like the oracle
  // pipeline: the events below only re-time this dataflow.
  report_.aggregation = aggregate_lbi(tree_, rng);
  report_.dissemination = disseminate_lbi(tree_);
  report_.system = report_.aggregation.system;
  report_.before = classify_all(ring_, report_.system, bal.epsilon);
  entries_ = bal.mode == BalanceMode::kProximityAware
                 ? build_entries_proximity(tree_, report_.before, node_keys,
                                           bal.selection)
                 : build_entries_ignorant(tree_, report_.before,
                                          report_.aggregation.reporter_vs,
                                          bal.selection);
  VsaParams params{bal.rendezvous_threshold, report_.system.min_load,
                   bal.key_local_rendezvous};
  params.trace = &trace_;
  report_.vsa = run_vsa(tree_, entries_, params);

  // Endpoint snapshots: decisions survive churn during the round.
  host_ep_ = host_endpoints(tree_);
  node_ep_.resize(ring_.node_count(), 0);
  lbi_waits_.resize(tree_.size(), 0);
  vsa_waits_.resize(tree_.size(), 0);
  for (const chord::NodeIndex i : ring_.live_nodes())
    node_ep_[i] = node_endpoint(ring_, i);

  // Round outcomes (lb.*) are published into the network's registry.
  // The distance histogram exists only once the round moves load, as
  // every planned assignment starts a transfer.
  registry_ = &net_.metrics();
  if (bal.apply_transfers && !report_.vsa.assignments.empty())
    transfer_distance_ = &registry_->histogram(
        "lb.transfer_distance", {0, 1, 2, 4, 8, 16, 32, 64, 128});
}

std::string_view ProtocolRound::tag_of(Phase p) noexcept {
  switch (p) {
    case Phase::kAggregation:
      return kTagAggregation;
    case Phase::kDissemination:
      return kTagDissemination;
    case Phase::kVsa:
      return kTagVsa;
    case Phase::kTransfer:
      return kTagTransfer;
  }
  return {};
}

void ProtocolRound::begin_phase(Phase p) {
  const std::size_t i = static_cast<std::size_t>(p);
  metrics(p).start = net_.engine().now();
  phase_base_[i] = net_.counters(tag_of(p));
  if (obs::Tracer* tr = net_.tracer()) {
    // Child of whatever caused the transition: the round span for phase
    // 1 (start() installs it as ambient), the last-arriving message of
    // the previous phase otherwise.
    phase_ctx_[i] = tr->child_of(net_.current_context());
    tr->begin(net_.engine().now(), tag_of(p), phase_name(p), phase_ctx_[i]);
  }
}

void ProtocolRound::end_phase(Phase p) {
  const std::size_t i = static_cast<std::size_t>(p);
  PhaseMetrics& m = metrics(p);
  m.end = net_.engine().now();
  // The network's per-tag tally is the accounting source: a phase's
  // traffic is its tag's delta since begin_phase.
  const sim::TrafficCounters now = net_.counters(tag_of(p));
  m.messages = now.messages - phase_base_[i].messages;
  m.bytes = now.bytes - phase_base_[i].bytes;
  // Phase 4's span closes once, in maybe_finish -- end_phase(kTransfer)
  // is re-stamped on every delivery.
  if (p != Phase::kTransfer)
    if (obs::Tracer* tr = net_.tracer())
      tr->end(net_.engine().now(), tag_of(p), phase_name(p), phase_ctx_[i],
              {obs::arg("messages", m.messages), obs::arg("bytes", m.bytes)});
}

void ProtocolRound::start(
    std::function<void(const BalanceReport&)> on_complete) {
  P2PLB_REQUIRE_MSG(!started_, "round already started");
  started_ = true;
  on_complete_ = std::move(on_complete);
  t0_ = net_.engine().now();
  // Sized even untraced so a mid-round tracer attach cannot index out of
  // range (the contexts just stay zero).
  transfer_ctx_.resize(report_.vsa.assignments.size());
  if (obs::Tracer* tr = net_.tracer()) {
    // The round span roots one fresh trace; everything the round causes
    // -- phases, messages, matches, transfers -- descends from it.
    round_ctx_ = obs::SpanContext{tr->new_trace_id(), tr->new_span_id(), 0};
    tr->begin(t0_, "lb.round", "round", round_ctx_,
              {obs::arg("nodes", report_.before.nodes.size()),
               obs::arg("planned_transfers", report_.vsa.assignments.size())});
  }
  // Ambient for the synchronous fan-out below: phase 1's report sends
  // (and reporter-less leaf folds) parent to the round span.
  const sim::Network::ContextScope scope(net_, round_ctx_);
  // Host-time analogue: the first wave of sends carries a "round" frame,
  // and the network propagates it down every causal chain, so the whole
  // round's wall cost nests under one flame-graph root.
  obs::Profiler* const prof = net_.profiler();
  const obs::Profiler::Scope prof_scope(
      prof, prof != nullptr ? prof->intern("round", "lb") : 0);
  begin_phase(Phase::kAggregation);
  start_aggregation();
}

void ProtocolRound::start_aggregation() {
  release_leaf_ = ktree::begin_aggregation(
      net_, tree_, host_ep_, {std::string(kTagAggregation), kLbiBytes},
      [this](const ktree::SweepResult&) {
        end_phase(Phase::kAggregation);
        begin_phase(Phase::kDissemination);
        start_dissemination();
      });

  // Each node reports at the leaf aggregate_lbi chose for it.  A leaf
  // joins the fold only after every node reporting through it has
  // delivered its triple; reporter-less leaves fold immediately.
  const std::vector<Reporter>& reporters = report_.aggregation.reporter_vs;
  for (const Reporter& r : reporters)
    if (r.leaf != ktree::kNoKtNode) ++lbi_waits_[r.leaf];
  for (ktree::KtIndex i = 0; i < tree_.size(); ++i)
    if (tree_.node(i).is_leaf() && lbi_waits_[i] == 0) release_leaf_(i);
  for (chord::NodeIndex node = 0; node < reporters.size(); ++node) {
    const ktree::KtIndex leaf = reporters[node].leaf;
    if (leaf == ktree::kNoKtNode) continue;
    net_.send(
        node_ep_[node], host_ep_[leaf],
        [this, leaf] {
          P2PLB_ASSERT(lbi_waits_[leaf] > 0);
          if (--lbi_waits_[leaf] == 0) release_leaf_(leaf);
        },
        kLbiBytes, 0.0, kTagAggregation);
  }
}

void ProtocolRound::start_dissemination() {
  handoffs_left_ = tree_.leaf_count();
  ktree::begin_dissemination(
      net_, tree_, host_ep_,
      {std::string(kTagDissemination), kLbiBytes},
      [this](ktree::KtIndex leaf) {
        // Leaf -> hosting-node handoff (zero distance, still a message).
        net_.send(
            host_ep_[leaf], host_ep_[leaf],
            [this] {
              P2PLB_ASSERT(handoffs_left_ > 0);
              if (--handoffs_left_ == 0) {
                end_phase(Phase::kDissemination);
                begin_phase(Phase::kVsa);
                start_vsa();
              }
            },
            kLbiBytes, 0.0, kTagDissemination);
      },
      nullptr);
}

template <class OnReceive>
void ProtocolRound::vsa_send(sim::Endpoint from, sim::Endpoint to,
                             double bytes, OnReceive on_receive) {
  ++vsa_outstanding_;
  net_.send(
      from, to,
      [this, on_receive] {
        // Process before decrementing: follow-up sends keep the phase
        // alive, so outstanding hits zero only at the true end.
        on_receive();
        P2PLB_ASSERT(vsa_outstanding_ > 0);
        if (--vsa_outstanding_ == 0) finish_vsa();
      },
      bytes, 0.0, kTagVsa);
}

void ProtocolRound::start_vsa() {
  // Each touched KT node fires once its last input arrives: entry records
  // for leaves, children's forwarded leftovers for interior nodes.
  for (const auto& [leaf, records] : entries_.heavy)
    vsa_waits_[leaf] += static_cast<std::uint32_t>(records.size());
  for (const auto& [leaf, records] : entries_.light)
    vsa_waits_[leaf] += static_cast<std::uint32_t>(records.size());
  for (ktree::KtIndex i = 0; i < tree_.size(); ++i)
    if (trace_.forwarded_up[i] > 0)
      vsa_waits_[tree_.node(i).parent] += trace_.forwarded_up[i];

  for (const auto& [leaf, records] : entries_.heavy)
    for (const ShedCandidate& r : records)
      vsa_send(node_ep_[r.from], host_ep_[leaf], kRecordBytes,
               [this, leaf = leaf] { vsa_record_arrival(leaf); });
  for (const auto& [leaf, records] : entries_.light)
    for (const SpareCapacity& r : records)
      vsa_send(node_ep_[r.node], host_ep_[leaf], kRecordBytes,
               [this, leaf = leaf] { vsa_record_arrival(leaf); });

  if (vsa_outstanding_ == 0) finish_vsa();  // no records at all
}

void ProtocolRound::vsa_record_arrival(ktree::KtIndex node) {
  P2PLB_ASSERT(vsa_waits_[node] > 0);
  if (--vsa_waits_[node] == 0) vsa_process(node);
}

void ProtocolRound::vsa_process(ktree::KtIndex node) {
  const double phase_now = net_.engine().now() - metrics(Phase::kVsa).start;

  // Rendezvous: re-stamp the precomputed pairings with the simulated time
  // they fired, then notify both endpoints of each pair.
  for (const std::uint32_t idx : trace_.assignments_of(node)) {
    Assignment& a = report_.vsa.assignments[idx];
    a.available_at = phase_now;
    // The match is a DAG node between the last-arriving record and the
    // pair notifications: scope it so the notify sends parent to it.
    obs::SpanContext match_ctx = net_.current_context();
    if (obs::Tracer* tr = net_.tracer()) {
      match_ctx = tr->child_of(match_ctx);
      tr->instant(net_.engine().now(), kTagVsa, "vsa.match", match_ctx,
                  {obs::arg("vs", a.vs), obs::arg("from", a.from),
                   obs::arg("to", a.to), obs::arg("load", a.load),
                   obs::arg("depth", a.rendezvous_depth)});
    }
    const sim::Network::ContextScope scope(net_, match_ctx);
    obs::Profiler* const prof = net_.profiler();
    const obs::Profiler::Scope prof_scope(
        prof, prof != nullptr ? prof->intern("vsa.match", "lb") : 0);
    vsa_send(host_ep_[node], node_ep_[a.from], kNotifyBytes,
             [this, idx] { begin_transfer(idx); });
    vsa_send(host_ep_[node], node_ep_[a.to], kNotifyBytes, [] {});
  }

  const std::uint32_t forwarded = trace_.forwarded_up[node];
  if (node == tree_.root() || forwarded == 0) {
    // The record flow ends here: the sweep is done once the last such
    // terminus has fired.
    report_.vsa.sweep_completion_time =
        std::max(report_.vsa.sweep_completion_time, phase_now);
  }
  if (node == tree_.root()) return;
  const ktree::KtIndex parent = tree_.node(node).parent;
  for (std::uint32_t r = 0; r < forwarded; ++r)
    vsa_send(host_ep_[node], host_ep_[parent], kRecordBytes,
             [this, parent] { vsa_record_arrival(parent); });
}

void ProtocolRound::finish_vsa() {
  if (vsa_done_) return;
  vsa_done_ = true;
  end_phase(Phase::kVsa);
  maybe_finish();
}

void ProtocolRound::begin_transfer(std::size_t assignment_index) {
  if (!config_.balancer.apply_transfers) return;
  if (!transfer_started_) {
    transfer_started_ = true;
    begin_phase(Phase::kTransfer);
  }
  const Assignment& a = report_.vsa.assignments[assignment_index];
  ++transfers_outstanding_;
  if (obs::Tracer* tr = net_.tracer()) {
    // Child of the notify delivery that triggered this transfer.
    transfer_ctx_[assignment_index] = tr->child_of(net_.current_context());
    tr->async_begin(net_.engine().now(), kTagTransfer, "transfer",
                    assignment_index + 1, transfer_ctx_[assignment_index],
                    {obs::arg("vs", a.vs), obs::arg("from", a.from),
                     obs::arg("to", a.to), obs::arg("load", a.load)});
  }
  // The payload message is a child of the transfer span (zero -- and
  // unused -- when untraced).
  const sim::Network::ContextScope scope(net_, transfer_ctx_[assignment_index]);
  obs::Profiler* const prof = net_.profiler();
  const obs::Profiler::Scope prof_scope(
      prof, prof != nullptr ? prof->intern("transfer", "lb") : 0);
  const double distance = net_.send(
      node_ep_[a.from], node_ep_[a.to],
      [this, assignment_index] {
        // Applied at delivery time against the *live* ring: a server that
        // vanished or a destination that died is skipped (lazy protocol).
        const Assignment& done = report_.vsa.assignments[assignment_index];
        const std::size_t applied =
            apply_assignments(ring_, std::span<const Assignment>(&done, 1));
        report_.transfers_applied += applied;
        if (applied > 0)
          registry_->counter("lb.load_moved").add(done.load);
        if (obs::Tracer* tr = net_.tracer())
          tr->async_end(net_.engine().now(), kTagTransfer, "transfer",
                        assignment_index + 1, transfer_ctx_[assignment_index],
                        {obs::arg("applied", applied > 0)});
        P2PLB_ASSERT(transfers_outstanding_ > 0);
        --transfers_outstanding_;
        end_phase(Phase::kTransfer);  // re-stamped per delivery: last wins
        maybe_finish();
      },
      kTransferBytesPerLoad * a.load, 0.0, kTagTransfer);
  transfer_distance_->observe(distance, a.load);
}

void ProtocolRound::maybe_finish() {
  if (done_ || !vsa_done_ || transfers_outstanding_ > 0) return;
  const double now = net_.engine().now();
  if (!transfer_started_) {
    // Nothing to move (or apply_transfers off): an empty, instant phase.
    PhaseMetrics& m = metrics(Phase::kTransfer);
    m.start = m.end = now;
  }
  report_.after = classify_all(ring_, report_.system, config_.balancer.epsilon);
  report_.completion_time = now - t0_;

  // Round outcomes land in the network's registry.
  const std::size_t planned = report_.vsa.assignments.size();
  registry_->counter("lb.rounds").increment();
  registry_->counter("lb.transfers_planned")
      .add(static_cast<double>(planned));
  registry_->counter("lb.transfers_applied")
      .add(static_cast<double>(report_.transfers_applied));
  registry_->counter("lb.transfers_skipped")
      .add(static_cast<double>(planned - report_.transfers_applied));

  if (obs::Tracer* tr = net_.tracer()) {
    if (transfer_started_)
      tr->end(now, kTagTransfer, phase_name(Phase::kTransfer),
              phase_ctx_[static_cast<std::size_t>(Phase::kTransfer)],
              {obs::arg("messages", metrics(Phase::kTransfer).messages),
               obs::arg("applied", report_.transfers_applied)});
    tr->end(now, "lb.round", "round", round_ctx_,
            {obs::arg("transfers_applied", report_.transfers_applied),
             obs::arg("completion_time", report_.completion_time)});
  }

  if (obs::Profiler* const prof = net_.profiler()) {
    // Sim-time axis for the profiler's crosstab: each phase window, named
    // after its network tag so it joins the matching frame, then the
    // round window.
    double round_end = metrics(Phase::kAggregation).start;
    for (std::size_t i = 0; i < kPhaseCount; ++i) {
      const Phase p = static_cast<Phase>(i);
      prof->note_span(tag_of(p), metrics(p).start, metrics(p).end);
      round_end = std::max(round_end, metrics(p).end);
    }
    prof->note_span("round", metrics(Phase::kAggregation).start, round_end);
  }

  done_ = true;
  if (on_complete_) on_complete_(report_);
}

}  // namespace p2plb::lb

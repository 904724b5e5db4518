#include "verify/verify.hpp"

#include <algorithm>
#include <sstream>

#include "base/error.hpp"

namespace paramrio::verify {

namespace {

Verifier* g_verifier = nullptr;

std::string join_ranks(const std::vector<int>& ranks) {
  std::string out;
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(ranks[i]);
  }
  return out;
}

const char* view_kind_name(int kind) {
  return kind == 2 ? "typed view" : "identity view";
}

}  // namespace

const char* to_string(Severity severity) {
  switch (severity) {
    case Severity::kError:
      return "error";
    case Severity::kWarning:
      return "warning";
    case Severity::kLint:
      return "lint";
  }
  return "?";
}

const char* to_string(Rule rule) {
  switch (rule) {
    case Rule::kCollectiveMismatch:
      return "collective-mismatch";
    case Rule::kRootDivergence:
      return "root-divergence";
    case Rule::kHintDivergence:
      return "hint-divergence";
    case Rule::kViewDivergence:
      return "view-divergence";
    case Rule::kMissingWait:
      return "missing-wait";
    case Rule::kUnpairedSplit:
      return "unpaired-split";
    case Rule::kUnsettledDeferred:
      return "unsettled-deferred";
    case Rule::kPostCloseIo:
      return "post-close-io";
    case Rule::kPrefetchLeak:
      return "prefetch-leak";
    case Rule::kClockRegression:
      return "clock-regression";
    case Rule::kOverlapAccounting:
      return "overlap-accounting";
    case Rule::kDeadlock:
      return "deadlock";
  }
  return "?";
}

const char* slug(Rule rule) {
  switch (rule) {
    case Rule::kCollectiveMismatch:
      return "collective_mismatch";
    case Rule::kRootDivergence:
      return "root_divergence";
    case Rule::kHintDivergence:
      return "hint_divergence";
    case Rule::kViewDivergence:
      return "view_divergence";
    case Rule::kMissingWait:
      return "missing_wait";
    case Rule::kUnpairedSplit:
      return "unpaired_split";
    case Rule::kUnsettledDeferred:
      return "unsettled_deferred";
    case Rule::kPostCloseIo:
      return "post_close_io";
    case Rule::kPrefetchLeak:
      return "prefetch_leak";
    case Rule::kClockRegression:
      return "clock_regression";
    case Rule::kOverlapAccounting:
      return "overlap_accounting";
    case Rule::kDeadlock:
      return "deadlock";
  }
  return "unknown";
}

Severity severity_of(Rule rule) {
  return rule == Rule::kPrefetchLeak ? Severity::kLint : Severity::kError;
}

std::string Violation::format() const {
  std::string out = "[";
  out += to_string(severity);
  out += "] ";
  out += to_string(rule);
  out += " ";
  out += object;
  if (seq >= 0) out += " slot#" + std::to_string(seq);
  if (!ranks.empty()) out += " rank(s) " + join_ranks(ranks);
  out += ": ";
  out += message;
  return out;
}

std::uint64_t Report::count(Rule rule) const {
  auto it = counts.find(rule);
  return it == counts.end() ? 0 : it->second;
}

std::uint64_t Report::errors() const {
  std::uint64_t n = 0;
  for (const auto& [rule, c] : counts) {
    if (severity_of(rule) == Severity::kError) n += c;
  }
  return n;
}

std::uint64_t Report::warnings() const {
  std::uint64_t n = 0;
  for (const auto& [rule, c] : counts) {
    if (severity_of(rule) == Severity::kWarning) n += c;
  }
  return n;
}

std::uint64_t Report::lints() const {
  std::uint64_t n = 0;
  for (const auto& [rule, c] : counts) {
    if (severity_of(rule) == Severity::kLint) n += c;
  }
  return n;
}

std::string Report::format() const {
  std::uint64_t total = 0;
  for (const auto& [rule, c] : counts) total += c;
  std::ostringstream os;
  if (total == 0) {
    os << "verify audit: clean\n";
    return os.str();
  }
  os << "verify audit: " << total << " violation(s) — " << errors()
     << " error(s), " << warnings() << " warning(s), " << lints()
     << " lint(s)\n";
  for (const Violation& v : violations) os << "  " << v.format() << "\n";
  if (violations.size() < total) {
    os << "  ... " << (total - violations.size())
       << " more (per-rule cap reached; counts are exact)\n";
  }
  return os.str();
}

void Report::export_to(obs::MetricsRegistry& registry,
                       const std::string& scope) const {
  std::uint64_t total = 0;
  for (const auto& [rule, c] : counts) {
    registry.add_nonzero(scope, slug(rule), c);
    total += c;
  }
  registry.add_nonzero(scope, "violations", total);
}

Verifier::Verifier(VerifierOptions options) : options_(options) {}

Verifier::~Verifier() {
  if (g_verifier == this) detach();
}

void Verifier::record(Rule rule, std::string object, std::vector<int> ranks,
                      long seq, std::string message) {
  std::sort(ranks.begin(), ranks.end());
  ranks.erase(std::unique(ranks.begin(), ranks.end()), ranks.end());
  std::uint64_t& n = report_.counts[rule];
  ++n;
  if (n > options_.max_violations_per_rule) return;
  Violation v;
  v.severity = severity_of(rule);
  v.rule = rule;
  v.object = std::move(object);
  v.ranks = std::move(ranks);
  v.seq = seq;
  v.message = std::move(message);
  report_.violations.push_back(std::move(v));
}

void Verifier::begin_run_if_needed() {
  if (!sim::in_simulation()) return;
  const void* tag = &sim::current_proc().engine();
  if (tag == engine_tag_) return;
  engine_tag_ = tag;
  comms_.clear();
  files_.clear();
  ranks_.clear();
}

void Verifier::note_clock() {
  if (!sim::in_simulation()) return;
  sim::Proc& p = sim::current_proc();
  if (p.deferred()) return;  // the shadow clock is allowed to run ahead
  const double now = p.now();
  RankState& rs = rank_state(p.rank());
  if (rs.clock_seen && now < rs.last_clock) {
    record(Rule::kClockRegression, "rank " + std::to_string(p.rank()),
           {p.rank()}, -1,
           "virtual clock moved backwards: " +
               obs::format_double(rs.last_clock) + " -> " +
               obs::format_double(now));
  }
  rs.last_clock = now;
  rs.clock_seen = true;
}

Verifier::CommState& Verifier::comm_state(const void* comm, int nranks) {
  auto it = comms_.find(comm);
  if (it == comms_.end()) {
    CommState state;
    state.index = static_cast<int>(comms_.size());
    state.nranks = nranks;
    it = comms_.emplace(comm, std::move(state)).first;
  }
  return it->second;
}

Verifier::RankState& Verifier::rank_state(int rank) { return ranks_[rank]; }

Verifier::FileGen& Verifier::open_gen(const std::string& path, int rank,
                                      int nranks) {
  std::vector<FileGen>& gens = files_[path];
  const std::size_t r = static_cast<std::size_t>(rank);
  bool fresh = gens.empty();
  if (!fresh) {
    FileGen& last = gens.back();
    // A rank reappearing, any close, or a different world size means the
    // previous generation is over: this open starts a new one.
    if (last.nranks != nranks || last.closes > 0 ||
        (r < last.opened.size() && last.opened[r])) {
      fresh = true;
    }
  }
  if (fresh) {
    FileGen g;
    g.gen = static_cast<int>(gens.size());
    g.nranks = nranks;
    g.opened.assign(static_cast<std::size_t>(nranks), false);
    g.closed.assign(static_cast<std::size_t>(nranks), false);
    g.next_coll.assign(static_cast<std::size_t>(nranks), 0);
    g.device_time.assign(static_cast<std::size_t>(nranks), 0.0);
    g.credited.assign(static_cast<std::size_t>(nranks), 0.0);
    gens.push_back(std::move(g));
  }
  FileGen& g = gens.back();
  if (r < g.opened.size()) g.opened[r] = true;
  return g;
}

Verifier::FileGen* Verifier::current_gen(const std::string& path) {
  auto it = files_.find(path);
  if (it == files_.end() || it->second.empty()) return nullptr;
  return &it->second.back();
}

std::string Verifier::file_label(const std::string& path,
                                 const FileGen& g) const {
  return "file:" + path + "#g" + std::to_string(g.gen);
}

// ---- mpi::Comm hooks ------------------------------------------------------

void Verifier::on_collective_begin(const void* comm, int rank, int nranks,
                                   int seq, const std::string& op, int root) {
  begin_run_if_needed();
  note_clock();
  CommState& cs = comm_state(comm, nranks);
  const std::string label = "comm#" + std::to_string(cs.index);
  if (seq >= 0) {
    const std::size_t slot = static_cast<std::size_t>(seq);
    if (cs.records.size() <= slot) cs.records.resize(slot + 1);
    CollRecord& rec = cs.records[slot];
    if (!rec.defined) {
      rec.defined = true;
      rec.op = op;
      rec.root = root;
      rec.first_rank = rank;
      rec.arrived.assign(static_cast<std::size_t>(nranks), false);
    } else if (rec.op != op) {
      record(Rule::kCollectiveMismatch, label, {rec.first_rank, rank}, seq,
             "rank " + std::to_string(rank) + " entered " + op +
                 " where rank " + std::to_string(rec.first_rank) +
                 " entered " + rec.op);
    } else if (rec.root != root) {
      record(Rule::kRootDivergence, label, {rec.first_rank, rank}, seq,
             op + " with root " + std::to_string(root) + " on rank " +
                 std::to_string(rank) + " but root " +
                 std::to_string(rec.root) + " on rank " +
                 std::to_string(rec.first_rank));
    }
    const std::size_t r = static_cast<std::size_t>(rank);
    if (r < rec.arrived.size() && !rec.arrived[r]) {
      rec.arrived[r] = true;
      ++rec.arrivals;
    }
  }
  rank_state(rank).coll_stack.push_back(label + " " + op + "#" +
                                        std::to_string(seq));
}

void Verifier::on_collective_end(const void* /*comm*/, int rank) {
  note_clock();
  RankState& rs = rank_state(rank);
  if (!rs.coll_stack.empty()) rs.coll_stack.pop_back();
}

void Verifier::on_recv_blocked(int rank, int src, int tag) {
  begin_run_if_needed();
  note_clock();
  RankState& rs = rank_state(rank);
  rs.recv.active = true;
  rs.recv.src = src;
  rs.recv.tag = tag;
}

void Verifier::on_recv_done(int rank) {
  note_clock();
  rank_state(rank).recv.active = false;
}

// ---- mpi::io::File hooks --------------------------------------------------

void Verifier::on_file_open(const std::string& path, int rank, int nranks,
                            const std::string& open_sig) {
  begin_run_if_needed();
  note_clock();
  FileGen& g = open_gen(path, rank, nranks);
  if (g.open_sig_rank < 0) {
    g.open_sig = open_sig;
    g.open_sig_rank = rank;
  } else if (g.open_sig != open_sig) {
    record(Rule::kHintDivergence, file_label(path, g), {g.open_sig_rank, rank},
           -1,
           "collective open with divergent arguments: rank " +
               std::to_string(rank) + " passed \"" + open_sig +
               "\" but rank " + std::to_string(g.open_sig_rank) +
               " passed \"" + g.open_sig + "\"");
  }
}

void Verifier::on_file_view(const std::string& /*path*/, int /*rank*/,
                            std::uint64_t /*disp*/, std::uint64_t /*sig*/) {
  begin_run_if_needed();
  note_clock();
}

void Verifier::on_file_collective(const std::string& path, int rank,
                                  const std::string& op,
                                  std::uint64_t data_bytes,
                                  std::uint64_t view_sig) {
  begin_run_if_needed();
  note_clock();
  FileGen* g = current_gen(path);
  if (g == nullptr) return;
  const std::size_t r = static_cast<std::size_t>(rank);
  if (r >= g->next_coll.size()) return;
  const int idx = g->next_coll[r]++;
  const std::size_t slot = static_cast<std::size_t>(idx);
  if (g->colls.size() <= slot) g->colls.resize(slot + 1);
  FileCollRecord& rec = g->colls[slot];
  if (!rec.defined) {
    rec.defined = true;
    rec.op = op;
    rec.first_rank = rank;
  } else if (rec.op != op) {
    record(Rule::kCollectiveMismatch, file_label(path, *g),
           {rec.first_rank, rank}, idx,
           "rank " + std::to_string(rank) + " entered " + op +
               " where rank " + std::to_string(rec.first_rank) + " entered " +
               rec.op);
  }
  // Data-carrying ranks of one collective must address the file the same
  // way: either all through typed views or all through the identity view.
  // Zero-length participants are exempt (a rank may join with an empty
  // buffer under whatever view it last used).
  if (data_bytes > 0 && op != "close") {
    const int kind = view_sig == 0 ? 1 : 2;
    if (rec.view_kind == 0) {
      rec.view_kind = kind;
      rec.view_rank = rank;
    } else if (rec.view_kind != kind) {
      record(Rule::kViewDivergence, file_label(path, *g),
             {rec.view_rank, rank}, idx,
             op + ": rank " + std::to_string(rank) + " participates through " +
                 view_kind_name(kind) + " while rank " +
                 std::to_string(rec.view_rank) + " uses " +
                 view_kind_name(rec.view_kind));
    }
  }
}

void Verifier::on_file_deferred_issue(const std::string& path, int rank,
                                      double issued, double completion) {
  begin_run_if_needed();
  note_clock();
  FileGen* g = current_gen(path);
  if (g == nullptr) return;
  const std::size_t r = static_cast<std::size_t>(rank);
  if (r >= g->device_time.size()) return;
  if (completion > issued) g->device_time[r] += completion - issued;
}

void Verifier::on_file_settle(const std::string& path, int rank, double issued,
                              double completion, double credited,
                              double now_before, double now_after) {
  begin_run_if_needed();
  note_clock();
  FileGen* g = current_gen(path);
  const std::size_t r = static_cast<std::size_t>(rank);
  if (g != nullptr && r < g->credited.size()) g->credited[r] += credited;
  const double duration = completion > issued ? completion - issued : 0.0;
  const std::string object =
      g != nullptr ? file_label(path, *g) : "file:" + path;
  if (credited > duration + options_.epsilon) {
    record(Rule::kOverlapAccounting, object, {rank}, -1,
           "settle credited " + obs::format_double(credited) +
               "s of overlap for an operation in flight only " +
               obs::format_double(duration) + "s");
  }
  if (now_after + options_.epsilon < now_before) {
    record(Rule::kClockRegression, object, {rank}, -1,
           "settle rewound the real clock: " + obs::format_double(now_before) +
               " -> " + obs::format_double(now_after));
  }
}

void Verifier::on_file_close(const std::string& path, int rank,
                             std::uint64_t leaked_requests,
                             std::uint64_t leaked_prefetches,
                             bool split_active, double overlap_saved_time) {
  begin_run_if_needed();
  note_clock();
  FileGen* g = current_gen(path);
  const std::string object =
      g != nullptr ? file_label(path, *g) : "file:" + path;
  if (leaked_requests > 0) {
    record(Rule::kMissingWait, object, {rank}, -1,
           std::to_string(leaked_requests) +
               " nonblocking request(s) never waited before close (the file "
               "settled them; wait() every iwrite_at request)");
  }
  if (split_active) {
    record(Rule::kUnpairedSplit, object, {rank}, -1,
           "split collective begun but not ended at close (missing "
           "read_at_all_end/write_at_all_end)");
  }
  if (leaked_prefetches > 0) {
    record(Rule::kPrefetchLeak, object, {rank}, -1,
           std::to_string(leaked_prefetches) +
               " prefetched range(s) still pending at close (the hint did "
               "not pay off; narrow or drop the prefetch)");
  }
  if (g != nullptr) {
    const std::size_t r = static_cast<std::size_t>(rank);
    if (r < g->device_time.size() &&
        overlap_saved_time > g->device_time[r] + options_.epsilon) {
      record(Rule::kOverlapAccounting, object, {rank}, -1,
             "overlap_saved_time " + obs::format_double(overlap_saved_time) +
                 "s exceeds total deferred device time " +
                 obs::format_double(g->device_time[r]) + "s");
    }
    if (r < g->closed.size() && !g->closed[r]) {
      g->closed[r] = true;
      ++g->closes;
    }
  }
}

void Verifier::on_post_close_io(const std::string& path, int rank,
                                const std::string& op) {
  begin_run_if_needed();
  note_clock();
  FileGen* g = current_gen(path);
  const std::string object =
      g != nullptr ? file_label(path, *g) : "file:" + path;
  record(Rule::kPostCloseIo, object, {rank}, -1,
         op + " on a closed file");
}

// ---- sim::RunObserver -----------------------------------------------------

void Verifier::on_proc_finished(int rank, bool deferred, double clock) {
  begin_run_if_needed();
  RankState& rs = rank_state(rank);
  rs.finished = true;
  if (deferred) {
    record(Rule::kUnsettledDeferred, "rank " + std::to_string(rank), {rank},
           -1,
           "proc finished inside an unsettled deferred scope (shadow clock " +
               obs::format_double(clock) +
               "); every DeferredScope must be settled before the rank "
               "returns");
  }
}

std::string Verifier::diagnose_deadlock() {
  std::ostringstream os;
  os << "verify: deadlock diagnosis";
  std::vector<int> blocked;
  for (const auto& [rank, rs] : ranks_) {
    os << "\n  rank " << rank << ": ";
    if (rs.finished) {
      os << "finished";
    } else if (rs.recv.active) {
      os << "blocked in recv(src=" << rs.recv.src << ", tag=" << rs.recv.tag
         << ")";
      if (!rs.coll_stack.empty()) os << " inside " << rs.coll_stack.back();
      blocked.push_back(rank);
    } else if (!rs.coll_stack.empty()) {
      os << "in " << rs.coll_stack.back();
    } else {
      os << "running (no pending communication seen)";
    }
  }
  // Wait-for edges: a blocked rank waits for the source of its pending recv.
  // Walk the edges from each blocked rank to surface a cycle.
  std::vector<int> cycle;
  for (int start : blocked) {
    std::vector<int> path;
    std::map<int, int> pos;
    int cur = start;
    while (true) {
      auto it = ranks_.find(cur);
      if (it == ranks_.end() || !it->second.recv.active) break;
      if (pos.count(cur) != 0) {
        cycle.assign(path.begin() + pos[cur], path.end());
        cycle.push_back(cur);
        break;
      }
      pos[cur] = static_cast<int>(path.size());
      path.push_back(cur);
      cur = it->second.recv.src;
    }
    if (!cycle.empty()) break;
  }
  if (!cycle.empty()) {
    os << "\n  wait-for cycle: ";
    for (std::size_t i = 0; i < cycle.size(); ++i) {
      if (i > 0) os << " -> ";
      os << cycle[i];
    }
  }
  std::string summary;
  if (!blocked.empty()) {
    summary = std::to_string(blocked.size()) +
              " rank(s) blocked in recv with no runnable proc";
    if (!cycle.empty()) summary += " (wait-for cycle among ranks)";
  } else {
    summary = "no runnable proc with unfinished procs remaining";
  }
  record(Rule::kDeadlock, "engine", blocked, -1, summary);
  return os.str();
}

// ---- global attachment ----------------------------------------------------

void attach(Verifier* v) {
  g_verifier = v;
  sim::set_run_observer(v);
}

void detach() {
  g_verifier = nullptr;
  sim::set_run_observer(nullptr);
}

Verifier* verifier() { return g_verifier; }

}  // namespace paramrio::verify

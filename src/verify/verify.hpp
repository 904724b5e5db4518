// MPI semantics and timing-invariant verifier.
//
// src/check audits *what bytes land in the file*; this layer audits the
// *protocol* that put them there.  A Verifier, attached process-wide, hooks
// mpi::Comm (collectives, blocked receives), mpi::io::File (open arguments,
// file views, collective sequences, nonblocking requests, deferred
// settlement, close-time leaks) and the sim engine (clean-finish and
// deadlock callbacks, via sim::RunObserver), and checks three rule families:
//
//   (a) collective matching — every rank of a communicator issues the same
//       collective sequence with compatible operation signatures and roots;
//       every rank of a file issues the same data-access collective
//       sequence with compatible hints and view kinds.  Because the engine
//       serialises ranks, a mismatch is detected the moment the divergent
//       rank arrives, and a stuck collective becomes a diagnosed deadlock
//       report (blocked op per rank, wait-for edges, cycle) instead of a
//       bare "deadlock" error.
//
//   (b) lifecycle rules — nonblocking requests are waited before close,
//       split-collective begin/end pairs match, DeferredScopes are settled
//       before the rank finishes, prefetches are consumed or invalidated
//       (a leak at close is advisory: an unprofitable hint, not a bug),
//       and no I/O is issued on a closed file.
//
//   (c) virtual-time invariants — per-rank clocks never regress, a settle
//       never rewinds the real clock, per-operation overlap credit never
//       exceeds the operation's in-flight duration, and a file's total
//       overlap_saved_time never exceeds its total deferred device time.
//
// Violations are first-class Report objects: rank-attributed, capped per
// rule (counts stay exact), renderable as text and exportable into the obs
// MetricsRegistry (nonzero-only, so a clean run's metric export is
// byte-identical with the verifier attached or not).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/registry.hpp"
#include "sim/engine.hpp"

namespace paramrio::verify {

enum class Severity : std::uint8_t { kError, kWarning, kLint };

enum class Rule : std::uint8_t {
  kCollectiveMismatch,  ///< different op at the same collective sequence slot
  kRootDivergence,      ///< rooted collective with disagreeing roots
  kHintDivergence,      ///< collective open with divergent mode/hints
  kViewDivergence,      ///< data ranks of one collective with unlike views
  kMissingWait,         ///< nonblocking request never waited before close
  kUnpairedSplit,       ///< split collective begun but not ended at close
  kUnsettledDeferred,   ///< rank finished inside a deferred scope
  kPostCloseIo,         ///< I/O call on a closed File
  kPrefetchLeak,        ///< prefetched range still pending at close (lint)
  kClockRegression,     ///< a rank's virtual clock moved backwards
  kOverlapAccounting,   ///< overlap credit exceeds deferred device time
  kDeadlock,            ///< no runnable proc with unfinished procs left
};

const char* to_string(Severity severity);
const char* to_string(Rule rule);

/// Registry/JSON-friendly slug ("collective_mismatch").
const char* slug(Rule rule);

/// Built-in severity of each rule (prefetch leaks are lints, everything
/// else errors).
Severity severity_of(Rule rule);

struct Violation {
  Severity severity = Severity::kError;
  Rule rule = Rule::kCollectiveMismatch;
  std::string object;      ///< "comm#0", "file:path#g0", "rank 3"
  std::vector<int> ranks;  ///< rank(s) involved, ascending
  long seq = -1;           ///< collective sequence slot (-1: n/a)
  std::string message;     ///< one-line actionable explanation

  std::string format() const;
};

struct Report {
  std::vector<Violation> violations;     ///< capped per rule, in order
  std::map<Rule, std::uint64_t> counts;  ///< exact count per rule

  std::uint64_t count(Rule rule) const;
  std::uint64_t errors() const;
  std::uint64_t warnings() const;
  std::uint64_t lints() const;
  /// No errors and no warnings (lints are advisory).
  bool clean() const { return errors() == 0 && warnings() == 0; }

  /// Human-readable audit, one violation per line.
  std::string format() const;

  /// Export nonzero rule counts into `registry` under `scope` (counter per
  /// rule slug plus "violations" total).  A clean, lint-free report exports
  /// nothing, keeping clean-run registries byte-identical.
  void export_to(obs::MetricsRegistry& registry,
                 const std::string& scope = "verify") const;
};

struct VerifierOptions {
  /// At most this many violations of each rule are materialised (counts in
  /// Report::counts stay exact).
  std::uint64_t max_violations_per_rule = 16;
  /// Slack for floating-point time comparisons (overlap accounting).
  double epsilon = 1e-9;
};

/// The verifier.  Construct, attach() it, run the program under test, then
/// inspect report().  Hooks are invoked by the mpi layer only while a
/// verifier is attached; all hooks arrive serialised by the engine.
class Verifier final : public sim::RunObserver {
 public:
  explicit Verifier(VerifierOptions options = {});
  ~Verifier() override;

  Verifier(const Verifier&) = delete;
  Verifier& operator=(const Verifier&) = delete;

  const Report& report() const { return report_; }

  // ---- mpi::Comm hooks --------------------------------------------------

  /// A rank entered a collective.  `op` carries the full signature
  /// ("barrier", "allreduce:u64:sum", "gatherv[allreduce:u64:sum]"),
  /// `seq` is the communicator's per-rank collective sequence number and
  /// `root` is -1 for unrooted collectives.
  void on_collective_begin(const void* comm, int rank, int nranks, int seq,
                           const std::string& op, int root);
  void on_collective_end(const void* comm, int rank);

  /// A rank is about to block in recv(src, tag) / resumed from it.  The
  /// wait-for edge feeds the deadlock diagnosis.
  void on_recv_blocked(int rank, int src, int tag);
  void on_recv_done(int rank);

  // ---- mpi::io::File hooks ----------------------------------------------

  /// Collective open.  `open_sig` is the mode plus the deterministic hints
  /// key; ranks of one open generation must agree on it.
  void on_file_open(const std::string& path, int rank, int nranks,
                    const std::string& open_sig);

  /// This rank installed a view (sig 0: identity view).
  void on_file_view(const std::string& path, int rank, std::uint64_t disp,
                    std::uint64_t sig);

  /// A rank entered a file collective ("write_at_all", "read_at_all_begin",
  /// ..., "close").  `data_bytes` is the rank's payload (0: a zero-length
  /// participant, exempt from view matching) and `view_sig` its installed
  /// view signature at the call.
  void on_file_collective(const std::string& path, int rank,
                          const std::string& op, std::uint64_t data_bytes,
                          std::uint64_t view_sig);

  /// A deferred (in-flight) operation was issued: nonblocking request,
  /// prefetch, or pipelined collective window.
  void on_file_deferred_issue(const std::string& path, int rank,
                              double issued, double completion);

  /// A deferred operation was settled.  `credited` is the overlap credit
  /// taken, `now_before`/`now_after` the rank's real clock around the
  /// settle.
  void on_file_settle(const std::string& path, int rank, double issued,
                      double completion, double credited, double now_before,
                      double now_after);

  /// Close-time audit: counts of requests never waited and prefetched
  /// ranges still pending, whether a split collective was still open, and
  /// the file's final overlap_saved_time.
  void on_file_close(const std::string& path, int rank,
                     std::uint64_t leaked_requests,
                     std::uint64_t leaked_prefetches, bool split_active,
                     double overlap_saved_time);

  /// An I/O call arrived on an already-closed File.
  void on_post_close_io(const std::string& path, int rank,
                        const std::string& op);

  // ---- sim::RunObserver --------------------------------------------------

  void on_proc_finished(int rank, bool deferred, double clock) override;
  std::string diagnose_deadlock() override;

 private:
  struct CollRecord {
    bool defined = false;
    std::string op;
    int root = -1;
    int first_rank = -1;
    std::vector<bool> arrived;
    int arrivals = 0;
  };
  struct CommState {
    int index = 0;  ///< stable "comm#N" label
    int nranks = 0;
    std::vector<CollRecord> records;  ///< indexed by collective seq
  };
  struct FileCollRecord {
    bool defined = false;
    std::string op;
    int first_rank = -1;
    /// First data-carrying rank's view kind (0: none yet; 1: identity
    /// view; 2: typed view) — data ranks of one collective must agree.
    int view_kind = 0;
    int view_rank = -1;
  };
  struct FileGen {
    int gen = 0;
    int nranks = 0;
    std::string open_sig;
    int open_sig_rank = -1;
    std::vector<bool> opened;
    std::vector<bool> closed;
    int closes = 0;
    std::vector<int> next_coll;         ///< per-rank file-collective index
    std::vector<FileCollRecord> colls;  ///< matched like comm collectives
    std::vector<double> device_time;    ///< per-rank deferred op duration sum
    std::vector<double> credited;       ///< per-rank overlap credit sum
  };
  struct RecvWait {
    bool active = false;
    int src = -1;
    int tag = 0;
  };
  struct RankState {
    double last_clock = 0.0;
    bool clock_seen = false;
    bool finished = false;
    std::vector<std::string> coll_stack;  ///< e.g. "comm#0 barrier#3"
    RecvWait recv;
  };

  void record(Rule rule, std::string object, std::vector<int> ranks, long seq,
              std::string message);
  /// Detect an engine change (a new run) and reset per-run tracking.
  void begin_run_if_needed();
  /// Clock-monotonicity probe; call on every hook that runs on a proc.
  void note_clock();
  CommState& comm_state(const void* comm, int nranks);
  FileGen& open_gen(const std::string& path, int rank, int nranks);
  FileGen* current_gen(const std::string& path);
  RankState& rank_state(int rank);
  std::string file_label(const std::string& path, const FileGen& g) const;

  VerifierOptions options_;
  Report report_;

  const void* engine_tag_ = nullptr;  ///< engine of the run being tracked
  std::map<const void*, CommState> comms_;
  std::map<std::string, std::vector<FileGen>> files_;
  std::map<int, RankState> ranks_;
};

/// Install `v` as the process-wide verifier (and as the engine's run
/// observer).  Call outside Engine::run; nullptr detaches.
void attach(Verifier* v);
void detach();

/// The attached verifier, or nullptr.  The mpi layer guards every hook call
/// with this.
Verifier* verifier();

/// RAII attach/detach, for tests and the bench harness.
class Attach {
 public:
  explicit Attach(Verifier& v) { attach(&v); }
  ~Attach() { detach(); }
  Attach(const Attach&) = delete;
  Attach& operator=(const Attach&) = delete;
};

}  // namespace paramrio::verify

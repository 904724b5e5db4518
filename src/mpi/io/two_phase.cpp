// Two-phase collective I/O (ROMIO's strategy) for File::read_at_all and
// File::write_at_all, with optional layout-aware file domains.
//
// Domain assignment runs in one of two modes:
//
//  * block mode — the aggregate hull [st, end) is cut into equal per-
//    aggregator byte shares; with Hints::cb_align == 1 (the default) this is
//    the classic 2002 ROMIO partitioning, oblivious to striping.  A larger
//    cb_align rounds the domain boundaries and the per-iteration window
//    stride to that many bytes, so windows stop straddling stripes.
//  * cyclic mode — when cb_align is auto, the fs reports a stripe layout and
//    cb_nodes == 0, each I/O server gets at most one aggregator: aggregator
//    `a` owns exactly the stripes living on the servers with
//    `server % naggr == a`.  Every window then moves whole stripes bound for
//    a single aggregator's servers, so a shared-file write acquires each
//    stripe's write token once, on one client, per open — the repair for the
//    paper's Figure-7 GPFS pathology.
//
// Both sides of every exchange derive identical window ranges from the
// shared DomainGeometry: each aggregator plans its window (the ranges and
// every rank's pieces in them), and each requester computes its own share
// of an aggregator's window.
//
// One window loop serves reads and writes.  Hints::overlap only decides
// whether an aggregator's window I/O runs in flight (File::in_flight): a
// pipelined read starts window t+1's read before it ships window t, where a
// synchronous one reads window t and then ships it, and a write settles the
// previous window before it issues the next.  At most one window is in
// flight per aggregator.
#include <algorithm>
#include <array>
#include <cstring>
#include <tuple>

#include "fault/fault.hpp"
#include "mpi/io/file.hpp"
#include "obs/profiler.hpp"

namespace paramrio::mpi::io {

namespace {

/// A fragment of one rank's request: where it sits in the file and where it
/// sits in that rank's user buffer.
struct Piece {
  std::uint64_t file_off = 0;
  std::uint64_t len = 0;
  std::uint64_t buf_off = 0;
};

std::vector<Piece> to_pieces(const std::vector<Segment>& segs) {
  std::vector<Piece> pieces;
  pieces.reserve(segs.size());
  std::uint64_t pos = 0;
  for (const Segment& s : segs) {
    pieces.push_back(Piece{s.offset, s.length, pos});
    pos += s.length;
  }
  std::sort(pieces.begin(), pieces.end(),
            [](const Piece& a, const Piece& b) {
              return a.file_off < b.file_off;
            });
  return pieces;
}

/// Clip sorted pieces to the file window [lo, hi), in file order.
std::vector<Piece> clip(const std::vector<Piece>& pieces, std::uint64_t lo,
                        std::uint64_t hi) {
  std::vector<Piece> out;
  // First piece that could overlap: last with file_off < hi, scan from the
  // first with end > lo.
  auto it = std::lower_bound(pieces.begin(), pieces.end(), lo,
                             [](const Piece& p, std::uint64_t v) {
                               return p.file_off + p.len <= v;
                             });
  for (; it != pieces.end() && it->file_off < hi; ++it) {
    std::uint64_t s = std::max(it->file_off, lo);
    std::uint64_t e = std::min(it->file_off + it->len, hi);
    if (s >= e) continue;
    out.push_back(Piece{s, e - s, it->buf_off + (s - it->file_off)});
  }
  return out;
}

std::uint64_t total_len(const std::vector<Piece>& pieces) {
  std::uint64_t n = 0;
  for (const Piece& p : pieces) n += p.len;
  return n;
}

Bytes serialize_segments(const std::vector<Segment>& segs) {
  Bytes b(segs.size() * sizeof(Segment));
  if (!segs.empty()) std::memcpy(b.data(), segs.data(), b.size());
  return b;
}

std::vector<Segment> parse_segments(const Bytes& b) {
  PARAMRIO_REQUIRE(b.size() % sizeof(Segment) == 0,
                   "corrupt access-pattern exchange");
  std::vector<Segment> segs(b.size() / sizeof(Segment));
  if (!segs.empty()) std::memcpy(segs.data(), b.data(), b.size());
  return segs;
}

/// Merge overlapping/adjacent [off, off+len) intervals of sorted pieces.
std::vector<Segment> union_runs(const std::vector<Piece>& pieces) {
  std::vector<Segment> runs;
  for (const Piece& p : pieces) {
    if (!runs.empty() &&
        p.file_off <= runs.back().offset + runs.back().length) {
      std::uint64_t end = std::max(runs.back().offset + runs.back().length,
                                   p.file_off + p.len);
      runs.back().length = end - runs.back().offset;
    } else {
      runs.push_back(Segment{p.file_off, p.len});
    }
  }
  return runs;
}

/// One contiguous file range of an aggregator's window, plus where its first
/// byte sits in the aggregator's collective buffer.
struct WindowRange {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  std::uint64_t buf_base = 0;
};

/// An aggregator's plan for one window: its file ranges, every rank's
/// pieces inside them in packing order, and the collective buffer the
/// window's bytes pass through.
struct Window {
  std::vector<WindowRange> ranges;
  std::vector<std::vector<Piece>> want;  ///< per rank
  std::uint64_t total = 0;               ///< bytes over every rank
  std::vector<std::byte> buf;
};

struct DomainGeometry {
  bool cyclic = false;
  std::uint64_t st = 0;
  std::uint64_t end = 0;
  int naggr = 1;
  std::uint64_t ntimes = 0;
  std::uint64_t align = 1;  ///< resolved alignment (block mode)
  // block mode
  std::uint64_t base = 0;   ///< st rounded down to `align`
  std::uint64_t share = 0;  ///< per-aggregator domain size, multiple of align
  std::uint64_t step = 0;   ///< window stride, multiple of align
  // cyclic mode
  std::uint64_t ss = 0;     ///< stripe size
  std::uint64_t spw = 0;    ///< stripes per window
  std::vector<std::vector<std::uint64_t>> stripes;  ///< ascending, per aggr

  /// The disjoint ascending file ranges aggregator `a` touches in iteration
  /// `t` (empty when it sits this one out), with packed buffer bases.
  void window_ranges(int a, std::uint64_t t,
                     std::vector<WindowRange>& out) const {
    out.clear();
    if (cyclic) {
      const auto& list = stripes[static_cast<std::size_t>(a)];
      const std::uint64_t b = t * spw;
      const std::uint64_t e =
          std::min<std::uint64_t>(list.size(), b + spw);
      std::uint64_t wbase = 0;
      for (std::uint64_t k = b; k < e; ++k) {
        const std::uint64_t lo = std::max(st, list[k] * ss);
        const std::uint64_t hi = std::min(end, (list[k] + 1) * ss);
        if (lo >= hi) continue;
        out.push_back(WindowRange{lo, hi, wbase});
        wbase += hi - lo;
      }
    } else {
      const std::uint64_t d0 = base + static_cast<std::uint64_t>(a) * share;
      const std::uint64_t d_lo = std::max(st, d0);
      const std::uint64_t d_hi = std::min(end, d0 + share);
      if (d_lo >= d_hi) return;
      const std::uint64_t w_lo = std::max(d_lo, d0 + t * step);
      const std::uint64_t w_hi = std::min(d_hi, d0 + (t + 1) * step);
      if (w_lo < w_hi) out.push_back(WindowRange{w_lo, w_hi, 0});
    }
  }

  std::uint64_t extent(const std::vector<WindowRange>& ranges) const {
    std::uint64_t n = 0;
    for (const WindowRange& r : ranges) n += r.hi - r.lo;
    return n;
  }
};

DomainGeometry make_geometry(std::uint64_t st, std::uint64_t end,
                             const Hints& hints, const pfs::Layout& layout,
                             int p) {
  DomainGeometry g;
  g.st = st;
  g.end = end;
  const bool auto_align = hints.cb_align == Hints::kCbAlignAuto;
  g.align = auto_align ? (layout.striped() ? layout.stripe_size : 1)
                       : hints.cb_align;
  if (g.align == 0) g.align = 1;
  g.cyclic = auto_align && layout.striped() && hints.cb_nodes == 0;
  if (g.cyclic) {
    g.ss = layout.stripe_size;
    g.naggr = std::min(p, layout.n_servers);
    g.spw = std::max<std::uint64_t>(1, hints.cb_buffer_size / g.ss);
    g.stripes.resize(static_cast<std::size_t>(g.naggr));
    const std::uint64_t s_lo = st / g.ss;
    const std::uint64_t s_hi = (end + g.ss - 1) / g.ss;
    const auto ns = static_cast<std::uint64_t>(layout.n_servers);
    const auto fs0 = static_cast<std::uint64_t>(layout.first_server);
    for (std::uint64_t s = s_lo; s < s_hi; ++s) {
      const std::uint64_t server = (s + fs0) % ns;
      g.stripes[static_cast<std::size_t>(
                    server % static_cast<std::uint64_t>(g.naggr))]
          .push_back(s);
    }
    std::uint64_t longest = 0;
    for (const auto& list : g.stripes) {
      longest = std::max<std::uint64_t>(longest, list.size());
    }
    g.ntimes = (longest + g.spw - 1) / g.spw;
  } else {
    g.naggr = hints.cb_nodes == 0 ? p : std::min(hints.cb_nodes, p);
    g.base = (st / g.align) * g.align;
    const std::uint64_t span = end - g.base;
    std::uint64_t share = (span + static_cast<std::uint64_t>(g.naggr) - 1) /
                          static_cast<std::uint64_t>(g.naggr);
    share = ((share + g.align - 1) / g.align) * g.align;
    g.share = share;
    g.step = std::max(g.align,
                      (hints.cb_buffer_size / g.align) * g.align);
    g.ntimes = (share + g.step - 1) / g.step;
  }
  return g;
}

}  // namespace

void File::two_phase(bool is_write, const std::vector<Segment>& segs,
                     std::span<std::byte> rbuf,
                     std::span<const std::byte> wbuf) {
  const int p = comm_.size();

  // ---- phase 0: exchange flattened access patterns --------------------
  std::vector<Bytes> raw;
  {
    OBS_SPAN("two_phase.pattern_exchange", sim::TimeCategory::kComm);
    raw = comm_.allgatherv(serialize_segments(segs));
  }
  std::vector<std::vector<Piece>> pieces(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    pieces[static_cast<std::size_t>(r)] =
        to_pieces(parse_segments(raw[static_cast<std::size_t>(r)]));
  }

  // Global hull of the aggregate request.
  std::uint64_t st = UINT64_MAX, end = 0;
  for (const auto& pl : pieces) {
    if (pl.empty()) continue;
    st = std::min(st, pl.front().file_off);
    end = std::max(end, pl.back().file_off + pl.back().len);
  }
  if (end <= st) {
    // Nothing to do anywhere (synchronised already) — but the collective
    // call still happened; keep the books consistent.
    stats_.collective_fastpath += 1;
    return;
  }

  // ---- graceful degradation: I/O-server outage -------------------------
  // With retrying enabled and a fault layer attached, ask it whether an I/O
  // server is down right now.  Funnelling the whole window through one
  // aggregator would hammer the dead server with every rank's data and burn
  // the aggregator's retry budget for all of them; independent access lets
  // each rank retry only what it owns.  Per-rank virtual clocks disagree, so
  // the decision is made collective with an allreduce — every rank takes
  // the same branch.
  bool degraded = false;
  if (hints_.retry.enabled() && fs_.fault_hook() != nullptr) {
    const std::uint64_t down =
        fs_.fault_hook()->degraded(sim::current_proc().now()) ? 1 : 0;
    degraded = comm_.allreduce_max(down) != 0;
  }

  // ---- fast path: non-interleaved requests ----------------------------
  // If per-rank hulls don't interleave, collective buffering buys nothing;
  // ROMIO falls back to independent access.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> hulls;
  for (const auto& pl : pieces) {
    if (pl.empty()) continue;
    hulls.emplace_back(pl.front().file_off,
                       pl.back().file_off + pl.back().len);
  }
  std::sort(hulls.begin(), hulls.end());
  bool interleaved = false;
  for (std::size_t i = 0; i + 1 < hulls.size(); ++i) {
    if (hulls[i].second > hulls[i + 1].first) {
      interleaved = true;
      break;
    }
  }
  if (degraded || !interleaved) {
    if (degraded) {
      stats_.collective_fallbacks += 1;
    } else {
      stats_.collective_fastpath += 1;
    }
    if (!segs.empty()) {
      if (is_write) {
        independent_write(segs, wbuf);
      } else {
        independent_read(segs, rbuf);
      }
    }
    comm_.barrier();
    return;
  }

  // ---- domain assignment ----------------------------------------------
  const pfs::Layout layout = fs_.layout(path_);
  const DomainGeometry geom = make_geometry(st, end, hints_, layout, p);
  const int tag = comm_.fresh_collective_tag();
  const bool i_aggregate = comm_.rank() < geom.naggr;
  const auto& mine = pieces[static_cast<std::size_t>(comm_.rank())];

  // Alignment bookkeeping: classify windows against the fs stripe grid
  // whenever one is known (even with cb_align off — the unaligned baseline
  // should show its straddling windows); token-save estimates only count
  // while the alignment is actually active.
  const std::uint64_t grid = layout.stripe_size;
  const bool align_active = geom.cyclic || geom.align > 1;
  auto classify_window = [&](const std::vector<WindowRange>& ranges) {
    if (grid == 0) return false;
    bool aligned = true;
    for (const WindowRange& r : ranges) {
      if (r.lo % grid != 0 && r.lo != st) aligned = false;
      if (r.hi % grid != 0 && r.hi != end) aligned = false;
    }
    if (aligned) {
      stats_.cb_aligned_windows += 1;
    } else {
      stats_.cb_straddle_windows += 1;
    }
    return aligned;
  };

  // Clip `pl` to every range of a window, concatenated in file order —
  // the canonical packing order both exchange sides agree on.
  auto clip_ranges = [](const std::vector<Piece>& pl,
                        const std::vector<WindowRange>& ranges) {
    std::vector<Piece> out;
    for (const WindowRange& r : ranges) {
      auto cl = clip(pl, r.lo, r.hi);
      out.insert(out.end(), cl.begin(), cl.end());
    }
    return out;
  };
  // Collective-buffer index of absolute file offset `off` (which must lie
  // inside one of the window's ranges).
  auto win_index = [](const std::vector<WindowRange>& ranges,
                      std::uint64_t off) {
    for (const WindowRange& r : ranges) {
      if (off >= r.lo && off < r.hi) return r.buf_base + (off - r.lo);
    }
    PARAMRIO_REQUIRE(false, "two-phase: offset outside window");
    return std::uint64_t{0};
  };

  // Requester side: this rank's pieces of aggregator `a`'s window `t`.
  std::vector<WindowRange> peer;  ///< scratch: the aggregator's ranges
  auto share = [&](int a, std::uint64_t t) {
    geom.window_ranges(a, t, peer);
    return clip_ranges(mine, peer);
  };

  // Aggregator side: the plan of window `t`.  A window that holds data is
  // counted and classified, and gets its collective buffer, sized to the
  // window's actual data hull (never the full cb_buffer_size for small
  // requests).  Pipelined collectives double-buffer windows by parity.
  const bool pipelined = overlap_enabled();
  std::array<Window, 2> windows;
  auto window_at = [&](std::uint64_t t) -> Window& {
    return windows[pipelined ? (t & 1) : 0];
  };
  auto plan_window = [&](std::uint64_t t) -> Window& {
    Window& w = window_at(t);
    geom.window_ranges(comm_.rank(), t, w.ranges);
    w.want.assign(static_cast<std::size_t>(p), {});
    w.total = 0;
    for (int r = 0; r < p; ++r) {
      auto& cl = w.want[static_cast<std::size_t>(r)];
      cl = clip_ranges(pieces[static_cast<std::size_t>(r)], w.ranges);
      w.total += total_len(cl);
    }
    if (w.total == 0) return w;
    stats_.two_phase_windows += 1;
    const bool aligned = classify_window(w.ranges);
    if (is_write && aligned && align_active) stats_.cb_token_saves += 1;
    const std::uint64_t wbytes = geom.extent(w.ranges);
    w.buf.resize(wbytes);
    stats_.cb_peak_window_bytes =
        std::max(stats_.cb_peak_window_bytes, wbytes);
    obs::counter_sample("cb_window_bytes", static_cast<double>(wbytes));
    return w;
  };

  // The aggregator's file I/O for a window that holds data.  Reads fetch
  // each union run of wanted bytes — not the whole hull, so interior holes
  // are never touched — clamped at EOF with a zero-fill tail (a restart may
  // legitimately ask past the end of a short dump; MPI-IO returns zeros
  // there, it must not fault).  Writes write each covered run contiguously;
  // holes are skipped so no read-modify-write is needed.  Pipelined, the
  // I/O runs in flight and is left pending in collective_pending_*; the
  // previous window is settled first, so at most one window per aggregator
  // is ever in flight.  settle_deferred's clock_at_least also serialises
  // consecutive window writes on the device.
  auto window_io = [&](Window& w) {
    std::vector<Piece> all;
    for (const auto& cl : w.want) all.insert(all.end(), cl.begin(), cl.end());
    std::sort(all.begin(), all.end(), [](const Piece& a, const Piece& b) {
      return a.file_off < b.file_off;
    });
    const std::uint64_t fsize = is_write ? 0 : fs_.size(fd_);
    auto io = [&] {
      obs::span_counter("window_bytes", w.buf.size());
      for (const Segment& run : union_runs(all)) {
        std::byte* at = w.buf.data() + win_index(w.ranges, run.offset);
        if (is_write) {
          fs_write(run.offset, std::span<const std::byte>(at, run.length));
          continue;
        }
        const std::uint64_t readable =
            run.offset < fsize ? std::min(run.length, fsize - run.offset) : 0;
        if (readable > 0) {
          fs_read(run.offset, std::span<std::byte>(at, readable));
        }
        std::fill(at + readable, at + run.length, std::byte{0});
      }
    };
    if (!pipelined) {
      OBS_SPAN("two_phase.io", sim::TimeCategory::kIo);
      io();
      return;
    }
    drain_collective();
    stats_.overlap_windows += 1;
    std::tie(collective_pending_issue_, collective_pending_completion_) =
        in_flight("two_phase.io", io);
  };
  auto read_window = [&](std::uint64_t t) {
    Window& w = plan_window(t);
    if (w.total > 0) window_io(w);
  };

  for (std::uint64_t t = 0; t < geom.ntimes; ++t) {
    const double window_start =
        obs::detail() ? sim::current_proc().now() : 0.0;
    if (!is_write) {
      // ---- READ: aggregator reads its window, distributes pieces -------
      if (i_aggregate) {
        // A synchronous read reads window t, then ships it.  A pipelined
        // one started window t's read an iteration earlier (window 0's
        // here) and starts window t+1's before it ships window t, so the
        // distribution comm overlaps the next window's file I/O.
        if (t == 0 || !pipelined) read_window(t);
        // Window t's bytes must be on the client before they ship.
        drain_collective();
        if (pipelined && t + 1 < geom.ntimes) read_window(t + 1);
        const Window& w = window_at(t);
        if (w.total > 0) {
          // Pack and ship each rank's share.
          OBS_SPAN("two_phase.comm", sim::TimeCategory::kComm);
          for (int r = 0; r < p; ++r) {
            const auto& cl = w.want[static_cast<std::size_t>(r)];
            if (cl.empty()) continue;
            Bytes out(total_len(cl));
            std::uint64_t pos = 0;
            for (const Piece& q : cl) {
              std::memcpy(out.data() + pos,
                          w.buf.data() + win_index(w.ranges, q.file_off),
                          q.len);
              pos += q.len;
            }
            comm_.charge_memcpy(out.size());
            obs::span_counter("bytes", out.size());
            comm_.send(r, tag, out);
          }
        }
      }
      // -- requester side: receive from every aggregator that holds a piece
      OBS_SPAN("two_phase.comm", sim::TimeCategory::kComm);
      for (int a = 0; a < geom.naggr; ++a) {
        const std::vector<Piece> cl = share(a, t);
        if (cl.empty()) continue;
        Bytes in = comm_.recv(a, tag);
        obs::span_counter("bytes", in.size());
        PARAMRIO_REQUIRE(in.size() == total_len(cl),
                         "two-phase read: piece size mismatch");
        std::uint64_t pos = 0;
        for (const Piece& q : cl) {
          std::memcpy(rbuf.data() + q.buf_off, in.data() + pos, q.len);
          pos += q.len;
        }
        comm_.charge_memcpy(in.size());
      }
    } else {
      // ---- WRITE: requesters ship pieces, aggregator assembles + writes
      {
        OBS_SPAN("two_phase.comm", sim::TimeCategory::kComm);
        for (int a = 0; a < geom.naggr; ++a) {
          const std::vector<Piece> cl = share(a, t);
          if (cl.empty()) continue;
          Bytes out(total_len(cl));
          std::uint64_t pos = 0;
          for (const Piece& q : cl) {
            std::memcpy(out.data() + pos, wbuf.data() + q.buf_off, q.len);
            pos += q.len;
          }
          comm_.charge_memcpy(out.size());
          obs::span_counter("bytes", out.size());
          comm_.send(a, tag, out);
        }
      }
      if (i_aggregate) {
        Window& w = plan_window(t);
        if (!w.ranges.empty()) {
          // Opened whenever the window has ranges, even if no rank sends.
          OBS_SPAN("two_phase.comm", sim::TimeCategory::kComm);
          for (int r = 0; r < p; ++r) {
            const auto& cl = w.want[static_cast<std::size_t>(r)];
            if (cl.empty()) continue;
            Bytes in = comm_.recv(r, tag);
            PARAMRIO_REQUIRE(in.size() == total_len(cl),
                             "two-phase write: piece size mismatch");
            std::uint64_t pos = 0;
            for (const Piece& q : cl) {
              std::memcpy(w.buf.data() + win_index(w.ranges, q.file_off),
                          in.data() + pos, q.len);
              pos += q.len;
            }
            comm_.charge_memcpy(in.size());
            obs::span_counter("bytes", in.size());
          }
        }
        // Pipelined, the previous window's write ran while this window's
        // exchange was received; window_io charges only whatever stall the
        // exchange did not cover, then leaves this window's write in flight
        // in turn.  The final window's write stays in flight: blocking
        // collectives drain it on return, split collectives at their end
        // call — by which point the caller's post-begin work may have
        // hidden it entirely.
        if (w.total > 0) window_io(w);
      }
    }
    if (obs::detail()) {
      obs::latency_sample("two_phase.window",
                          sim::current_proc().now() - window_start);
    }
  }
}

}  // namespace paramrio::mpi::io

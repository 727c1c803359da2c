#include "wire.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <fstream>
#include <limits>
#include <mutex>
#include <optional>
#include <thread>

namespace ytbench {

using namespace youtopia;  // NOLINT(build/namespaces) — benchmark driver
using Clock = std::chrono::steady_clock;

namespace {

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

Outcome FromStatus(const Status& status) {
  if (status.ok()) return Outcome::kOk;
  switch (status.code()) {
    case StatusCode::kOverloaded:
      return Outcome::kShed;
    case StatusCode::kTimedOut:
      return Outcome::kTimeout;
    case StatusCode::kAborted:
      return Outcome::kAborted;
    default:
      return Outcome::kError;
  }
}

/// State shared with completion callbacks, which can fire after the
/// leg gave up on them; `closed` makes such late callbacks no-ops.
struct Completions {
  std::mutex mu;
  std::condition_variable cv;
  bool closed = false;
  size_t outstanding = 0;
  Clock::time_point start;
  std::vector<OpResult> results;
  std::vector<Span> spans;
  bool trace = false;
};

/// A fixed-capacity FIFO handed from the pacer to one worker thread.
template <typename T>
class Handoff {
 public:
  explicit Handoff(size_t capacity) { items_.reserve(capacity); }
  void Push(T item) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      items_.push_back(std::move(item));
    }
    cv_.notify_one();
  }
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }
  /// False once closed and drained.
  bool Pop(T* out) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return closed_ || head_ < items_.size(); });
    if (head_ == items_.size()) return false;
    *out = std::move(items_[head_++]);
    return true;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<T> items_;
  size_t head_ = 0;
  bool closed_ = false;
};

struct InFlight {
  uint32_t op = 0;
  std::future<Result<QueryResult>> future;
};

/// The aggregate "cpu" line of /proc/stat: steal and the total of the
/// first eight fields, in clock ticks (zeros where it is unreadable).
void ReadCpuTicks(uint64_t* steal, uint64_t* total) {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  uint64_t v = 0;
  for (int i = 0; i < 8 && in >> v; ++i) {
    *total += v;
    if (i == 7) *steal = v;
  }
}

}  // namespace

StealMeter::StealMeter() { ReadCpuTicks(&steal0_, &total0_); }

double StealMeter::Share() const {
  uint64_t steal = 0, total = 0;
  ReadCpuTicks(&steal, &total);
  if (total <= total0_) return 0;
  return static_cast<double>(steal - steal0_) /
         static_cast<double>(total - total0_);
}

YoutopiaConfig EngineConfig(const std::string& wal_dir) {
  YoutopiaConfig config;
  config.executor.num_workers = 2;
  config.executor.admission_high_water = 64;
  if (!wal_dir.empty()) {
    config.wal.enabled = true;
    config.wal.dir = wal_dir;
    config.wal.group_commit = true;
    config.wal.fsync = true;
    config.wal.checkpoint_on_shutdown = false;
  }
  return config;
}

Status LoadDataset(Youtopia* db, const Dataset& data) {
  for (const std::string& sql : data.load_script) {
    auto result = db->Execute(sql);
    if (!result.ok()) return result.status();
  }
  return Status::OK();
}

void System::StopWire() {
  for (auto& c : stmt_conns) c->Close();
  for (auto& c : submit_conns) c->Close();
  stmt_conns.clear();
  submit_conns.clear();
  if (server) server->Stop();
  server.reset();
}

Status StartSystem(const WorkloadSpec& spec, const Dataset& data,
                   const std::string& wal_dir, System* sys) {
  sys->db = std::make_unique<Youtopia>(EngineConfig(wal_dir));
  if (!sys->db->recovery_status().ok()) return sys->db->recovery_status();
  YOUTOPIA_RETURN_IF_ERROR(LoadDataset(sys->db.get(), data));
  sys->server = std::make_unique<net::YoutopiaServer>(sys->db.get());
  YOUTOPIA_RETURN_IF_ERROR(sys->server->Start());
  const uint16_t port = sys->server->port();
  auto connect = [&](int n, auto* conns) -> Status {
    for (int i = 0; i < n; ++i) {
      auto client = net::RemoteClient::Connect("127.0.0.1", port);
      if (!client.ok()) return client.status();
      conns->push_back(std::move(*client));
    }
    return Status::OK();
  };
  YOUTOPIA_RETURN_IF_ERROR(connect(spec.stmt_conns, &sys->stmt_conns));
  return connect(spec.submit_conns, &sys->submit_conns);
}

LegRun RunLeg(System* sys, const Leg& leg, double drain_s, Tracer* tracer) {
  const size_t n = leg.ops.size();
  auto shared = std::make_shared<Completions>();
  shared->results.assign(n, OpResult{});
  shared->trace = tracer != nullptr;
  if (shared->trace) shared->spans.reserve(leg.submissions * 2);

  std::vector<std::unique_ptr<Handoff<InFlight>>> stmt_q;
  std::vector<std::unique_ptr<Handoff<uint32_t>>> submit_q;
  std::vector<size_t> per_stmt(sys->stmt_conns.size(), 0);
  std::vector<size_t> per_submit(sys->submit_conns.size(), 0);
  for (const Op& op : leg.ops) {
    ++(op.kind == OpKind::kSubmit ? per_submit : per_stmt)[op.conn];
  }
  for (size_t c = 0; c < per_stmt.size(); ++c) {
    stmt_q.push_back(std::make_unique<Handoff<InFlight>>(per_stmt[c]));
  }
  for (size_t c = 0; c < per_submit.size(); ++c) {
    submit_q.push_back(std::make_unique<Handoff<uint32_t>>(per_submit[c]));
  }

  const StealMeter steal;
  const Clock::time_point start = Clock::now();
  shared->start = start;
  const Clock::time_point give_up_at =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(
                      (n == 0 ? 0 : leg.ops.back().at_s) + drain_s));
  OpResult* results = shared->results.data();
  // Each submission's handle, written by its submitter thread only.
  std::vector<std::optional<EntangledHandle>> handles(n);

  // Harvesters: one per statement connection. The server runs one
  // connection's statements in order, so waiting on futures in issue
  // order sees each response as it lands.
  std::vector<std::thread> threads;
  for (size_t c = 0; c < stmt_q.size(); ++c) {
    std::vector<Span>* spans =
        tracer ? tracer->NewBuffer(per_stmt[c] * 2) : nullptr;
    threads.emplace_back([&, c, spans] {
      InFlight item;
      while (stmt_q[c]->Pop(&item)) {
        auto result = item.future.get();
        const double now = Seconds(start, Clock::now());
        OpResult& r = results[item.op];
        r.ack_s = r.done_s = now;
        r.ack = r.final = FromStatus(result.status());
        if (result.ok()) r.rows = static_cast<uint32_t>(result->rows.size());
        if (spans != nullptr) {
          const double at_us = leg.ops[item.op].at_s * 1e6;
          spans->push_back(Span{SpanId(item.op, 0), 0, item.op, "op.statement",
                                at_us, now * 1e6});
          spans->push_back(Span{SpanId(item.op, 1), SpanId(item.op, 0),
                                item.op, "wire.execute", r.sent_s * 1e6,
                                now * 1e6});
        }
      }
    });
  }
  // Submitters: one per submission connection; a submission blocks
  // only until its registration ack.
  for (size_t c = 0; c < submit_q.size(); ++c) {
    std::vector<Span>* spans =
        tracer ? tracer->NewBuffer(per_submit[c]) : nullptr;
    threads.emplace_back([&, c, spans] {
      net::RemoteClient* client = sys->submit_conns[c].get();
      uint32_t idx = 0;
      while (submit_q[c]->Pop(&idx)) {
        const Op& op = leg.ops[idx];
        OpResult& r = results[idx];
        const Clock::time_point sent = Clock::now();
        if (sent > give_up_at) continue;  // abandoned: never sent
        r.sent_s = Seconds(start, sent);
        {
          std::lock_guard<std::mutex> lock(shared->mu);
          ++shared->outstanding;
        }
        auto handle = client->SubmitAs(
            op.name, op.sql,
            [shared, idx, at_us = op.at_s * 1e6](const EntangledHandle&) {
              const double now = Seconds(shared->start, Clock::now());
              std::lock_guard<std::mutex> lock(shared->mu);
              if (shared->closed) return;
              OpResult& done = shared->results[idx];
              done.done_s = now;
              if (shared->trace) {
                // The ack may not be recorded yet: a submission that
                // closes its group completes inside SubmitAs.
                const double now_us = now * 1e6;
                const double ack_us =
                    done.ack_s >= 0 ? done.ack_s * 1e6 : now_us;
                shared->spans.push_back(Span{SpanId(idx, 0), 0, idx,
                                             "op.submission", at_us, now_us});
                shared->spans.push_back(Span{SpanId(idx, 2), SpanId(idx, 0),
                                             idx, "wire.push_wait", ack_us,
                                             now_us});
              }
              --shared->outstanding;
              shared->cv.notify_all();
            });
        const double acked = Seconds(start, Clock::now());
        {
          std::lock_guard<std::mutex> lock(shared->mu);
          r.ack_s = acked;
          r.ack = FromStatus(handle.status());
          r.closed_group = handle.ok() && handle->Done();
          if (handle.ok()) {
            handles[idx] = *handle;
          } else {
            r.final = r.ack;
            --shared->outstanding;
            shared->cv.notify_all();
          }
        }
        if (spans != nullptr) {
          spans->push_back(Span{SpanId(idx, 1), SpanId(idx, 0), idx,
                                "wire.submit", r.sent_s * 1e6, acked * 1e6});
        }
      }
    });
  }

  // The pacer: this thread. Sleeps to each op's due time and sends; it
  // never calls into the engine, so nothing the engine holds can make
  // it late.
  LegRun run;
  run.lateness_ms.Reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    const Op& op = leg.ops[i];
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(op.at_s));
    std::this_thread::sleep_until(due);
    results[i].issued_s = Seconds(start, Clock::now());
    if (op.kind == OpKind::kSubmit) {
      submit_q[op.conn]->Push(i);
      continue;
    }
    results[i].sent_s = results[i].issued_s;
    stmt_q[op.conn]->Push(
        InFlight{i, sys->stmt_conns[op.conn]->ExecuteAsync(op.sql)});
  }
  for (auto& q : stmt_q) q->Close();
  for (auto& q : submit_q) q->Close();
  for (auto& t : threads) t.join();
  {
    std::unique_lock<std::mutex> lock(shared->mu);
    shared->cv.wait_until(lock, give_up_at,
                          [&] { return shared->outstanding == 0; });
    shared->closed = true;
    run.results = shared->results;
    if (tracer != nullptr) {
      *tracer->NewBuffer(0) = std::move(shared->spans);
    }
  }
  run.wall_s = Seconds(start, Clock::now());
  run.steal = steal.Share();
  // Whatever is still pending belongs to a group that never closed.
  // After the cancels every handle reaches its final state, which the
  // checks take from the handle itself: a group may have closed on the
  // server after the drain gave up on it.
  for (auto& c : sys->submit_conns) (void)c->CancelAll();
  const Clock::time_point settle_by = Clock::now() + std::chrono::seconds(10);
  for (uint32_t i = 0; i < n; ++i) {
    if (!handles[i].has_value()) continue;
    const EntangledHandle& h = *handles[i];
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        settle_by - Clock::now());
    (void)h.Wait(std::max(left, std::chrono::milliseconds(0)));
    const auto outcome = h.Outcome();
    OpResult& r = run.results[i];
    r.final = outcome.has_value() ? FromStatus(*outcome) : Outcome::kTimeout;
    if (r.final != Outcome::kOk) continue;
    for (const Tuple& t : h.Answers()) {
      if (t.size() < 2 || t.at(1).is_null()) continue;
      if (r.fno < 0) {
        r.fno = t.at(1).int64_value();
      } else {
        r.hid = t.at(1).int64_value();
      }
    }
  }

  for (uint32_t i = 0; i < n; ++i) {
    const OpResult& r = run.results[i];
    if (r.issued_s >= 0) {
      run.lateness_ms.Add((r.issued_s - leg.ops[i].at_s) * 1e3);
    }
  }
  auto backlog_at = [&](double t) {
    size_t sent = 0, answered = 0;
    for (const OpResult& r : run.results) {
      if (r.issued_s >= 0 && r.issued_s <= t) ++sent;
      if (r.ack_s >= 0 && r.ack_s <= t) ++answered;
    }
    return sent - std::min(sent, answered);
  };
  run.backlog_mid = backlog_at(leg.seconds / 2);
  run.backlog_end = backlog_at(leg.seconds);

  // Pending coordinations over time: +1 at a submission's ack, -1 at
  // its completion. Taken from the client's own timestamps because
  // polling Coordinator::pending_count() takes the locks matching holds.
  std::vector<std::pair<double, int>> events;
  for (size_t i = 0; i < n; ++i) {
    const OpResult& r = run.results[i];
    if (leg.ops[i].kind != OpKind::kSubmit || r.ack != Outcome::kOk) continue;
    events.emplace_back(r.ack_s, 1);
    if (r.done_s >= 0) events.emplace_back(std::max(r.done_s, r.ack_s), -1);
  }
  std::sort(events.begin(), events.end());
  long pending = 0;
  for (const auto& [t, delta] : events) {
    pending += delta;
    if (pending > 0) {
      run.pending_peak =
          std::max(run.pending_peak, static_cast<size_t>(pending));
    }
  }
  return run;
}

LegStats Summarize(const Leg& leg, const LegRun& run) {
  constexpr double kFailed = std::numeric_limits<double>::infinity();
  LegStats s;
  s.stmt_us.Reserve(leg.statements);
  s.submit_us.Reserve(leg.submissions);
  s.coord_ms.Reserve(leg.groups.size());
  for (size_t i = 0; i < leg.ops.size(); ++i) {
    const Op& op = leg.ops[i];
    const OpResult& r = run.results[i];
    if (op.kind == OpKind::kBook || op.kind == OpKind::kDecrement) ++s.writes;
    if (op.kind != OpKind::kBrowse && r.ack == Outcome::kOk) {
      s.acked_sql_bytes += static_cast<double>(op.sql.size());
    }
    if (op.kind == OpKind::kSubmit) {
      // A submission that closes its group is timed by coord_ms.
      if (r.closed_group) continue;
      if (r.ack == Outcome::kOk) {
        s.submit_us.Add((r.ack_s - op.at_s) * 1e6);
      } else {
        s.submit_us.Add(kFailed);
      }
      continue;
    }
    ++s.statements;
    if (r.final == Outcome::kOk) {
      s.stmt_us.Add((r.done_s - op.at_s) * 1e6);
    } else {
      s.stmt_us.Add(kFailed);
      ++s.failed_statements;
    }
  }
  for (const Group& g : leg.groups) {
    ++s.groups;
    double last = 0;
    bool closed = true;
    for (uint32_t idx : g.ops) {
      const OpResult& r = run.results[idx];
      // Closed on the server but not by the drain counts as failed here.
      if (r.final != Outcome::kOk || r.done_s < 0) closed = false;
      last = std::max(last, r.done_s);
    }
    if (closed) {
      ++s.closed_groups;
      s.coord_ms.Add((last - g.last_at_s) * 1e3);
    } else {
      ++s.failed_groups;
      s.coord_ms.Add(kFailed);
    }
  }
  return s;
}

Result<TableState> ReadTables(Youtopia* db) {
  TableState state;
  auto read_pairs = [&](const char* sql, auto* out) -> Status {
    auto result = db->Execute(sql);
    if (!result.ok()) return result.status();
    out->reserve(result->rows.size());
    for (const Tuple& t : result->rows) {
      out->emplace_back(t.at(0).string_value(), t.at(1).int64_value());
    }
    return Status::OK();
  };
  YOUTOPIA_RETURN_IF_ERROR(read_pairs(
      "SELECT traveler, fno FROM Reservation", &state.reservations));
  YOUTOPIA_RETURN_IF_ERROR(read_pairs(
      "SELECT traveler, hid FROM HotelReservation", &state.hotel_reservations));
  auto seats = db->Execute("SELECT seats FROM Flights");
  if (!seats.ok()) return seats.status();
  for (const Tuple& t : seats->rows) state.seats_sum += t.at(0).int64_value();
  return state;
}

}  // namespace ytbench

#include "replay.h"

#include <chrono>
#include <optional>

#include "net/protocol.h"
#include "sql/parser.h"

namespace ytbench {

using namespace youtopia;  // NOLINT(build/namespaces) — benchmark driver
using Clock = std::chrono::steady_clock;

namespace {

/// Span slots within one op.
enum Slot : uint64_t {
  kRoot,
  kEncodeReq,
  kDecodeReq,
  kParse,
  kPrepare,
  kExecute,
  kLookup,
  kEncodeResp,
  kDecodeResp,
  kPushCodec,
};

/// Times one call as a child span of the op's root.
class OpSpans {
 public:
  OpSpans(std::vector<Span>* spans, Clock::time_point epoch, uint32_t op)
      : spans_(spans), epoch_(epoch), op_(op) {}

  double Now() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
        .count();
  }

  /// Runs `fn`, records it under `name`, returns its duration (µs).
  template <typename Fn>
  double Time(uint64_t slot, const char* name, Fn&& fn) {
    const double start = Now();
    fn();
    const double end = Now();
    const uint64_t parent = slot == kRoot ? 0 : SpanId(op_, kRoot);
    spans_->push_back(Span{SpanId(op_, slot), parent, op_, name, start, end});
    return end - start;
  }

 private:
  std::vector<Span>* spans_;
  Clock::time_point epoch_;
  uint32_t op_;
};

net::WireHandle Snapshot(const EntangledHandle& handle) {
  net::WireHandle wire;
  wire.query_id = handle.id();
  wire.done = handle.Done();
  if (wire.done) {
    wire.outcome = handle.Outcome().value_or(Status::OK());
    wire.answers = handle.Answers();
  }
  return wire;
}

/// Encode and decode times of one message, and its frame size.
struct CodecTimes {
  double encode_us = 0;
  double decode_us = 0;
  size_t bytes = 0;
};

/// Encodes `msg` into a frame and decodes it back, timing both.
template <typename Message>
CodecTimes RoundTrip(OpSpans* spans, uint64_t enc_slot, uint64_t dec_slot,
                     const Message& msg, ReplayResult* out) {
  CodecTimes t;
  std::string frame;
  t.encode_us = spans->Time(enc_slot, "net.encode",
                            [&] { frame = net::EncodeFrame(msg); });
  const std::string_view payload =
      std::string_view(frame).substr(net::kFrameHeaderBytes + 1);
  t.decode_us = spans->Time(dec_slot, "net.decode", [&] {
    auto decoded = net::DecodePayload<Message>(payload);
    (void)decoded.ok();
  });
  t.bytes = frame.size();
  out->encode_us.Add(t.encode_us);
  out->decode_us.Add(t.decode_us);
  return t;
}

}  // namespace

Status Replay(Youtopia* db, const Dataset& data, const Leg& leg,
              Tracer* tracer, Checker* checker, ReplayResult* out) {
  std::vector<Span>* spans = tracer->NewBuffer(leg.ops.size() * 8);
  std::vector<OpResult> results(leg.ops.size());
  std::vector<std::optional<EntangledHandle>> handles(leg.ops.size());
  // Per-stage samples of statements only, for the residual.
  Samples s_enc_req, s_dec_req, s_prepare, s_exec, s_enc_resp, s_dec_resp;
  Samples rows;
  double resp_bytes = 0;
  size_t statements = 0;
  const Clock::time_point epoch = Clock::now();

  for (uint32_t i = 0; i < leg.ops.size(); ++i) {
    const Op& op = leg.ops[i];
    OpResult& r = results[i];
    OpSpans timer(spans, epoch, i);
    const double root_start = timer.Now();
    const bool submit = op.kind == OpKind::kSubmit;

    if (submit) {
      RoundTrip(&timer, kEncodeReq, kDecodeReq,
                net::SubmitRequest{i, op.name, op.sql}, out);
    } else {
      const CodecTimes req = RoundTrip(&timer, kEncodeReq, kDecodeReq,
                                       net::ExecuteRequest{i, op.sql}, out);
      s_enc_req.Add(req.encode_us);
      s_dec_req.Add(req.decode_us);
    }
    out->parse_us.Add(timer.Time(kParse, "sql.parse", [&] {
      auto parsed = Parser::ParseStatement(op.sql);
      (void)parsed.ok();
    }));
    const size_t hits_before = db->plan_cache().stats().hits;
    Result<PreparedStatementPtr> prepared = Status::OK();
    const double prepare_us = timer.Time(
        kPrepare, "server.prepare", [&] { prepared = db->Prepare(op.sql); });
    if (!prepared.ok()) return prepared.status();
    (db->plan_cache().stats().hits > hits_before ? out->prepare_hit_us
                                                 : out->prepare_miss_us)
        .Add(prepare_us);

    if (submit) {
      Result<EntangledHandle> handle = Status::OK();
      const double us = timer.Time(kExecute, "entangle.submit", [&] {
        handle = db->SubmitPrepared(**prepared, op.name);
      });
      if (!handle.ok()) return handle.status();
      handles[i] = *handle;
      r.ack = Outcome::kOk;
      const bool closed = handle->Done();
      (closed ? out->submit_close_us : out->submit_park_us).Add(us);
      RoundTrip(&timer, kEncodeResp, kDecodeResp,
                net::SubmitResponse{i, Status::OK(), Snapshot(*handle)}, out);
      if (closed) {
        // The other members learn of the close through pushes.
        uint64_t slot = kPushCodec;
        for (uint32_t m : leg.groups[static_cast<size_t>(op.key)].ops) {
          if (m == i || !handles[m].has_value() || slot + 1 >= kSpanSlots) {
            continue;
          }
          const EntangledHandle& h = *handles[m];
          RoundTrip(&timer, slot, slot + 1,
                    net::CompletionPush{h.id(),
                                        h.Outcome().value_or(Status::OK()),
                                        h.Answers()},
                    out);
          slot += 2;
        }
      }
    } else {
      ++statements;
      Result<QueryResult> result = Status::OK();
      const char* name =
          op.kind == OpKind::kBrowse ? "exec.select" : "exec.write";
      const double us = timer.Time(
          kExecute, name, [&] { result = db->ExecutePrepared(**prepared); });
      s_prepare.Add(prepare_us);
      s_exec.Add(us);
      r.ack = r.final = result.ok() ? Outcome::kOk : Outcome::kError;
      if (!result.ok()) return result.status();
      if (op.kind == OpKind::kBrowse) {
        out->select_us.Add(us);
        r.rows = static_cast<uint32_t>(result->rows.size());
        rows.Add(r.rows);
        const std::string& dest =
            data.dest_names[data.browse_dest[static_cast<size_t>(op.key)]];
        SnapshotHandle snapshot = db->txn_manager().OpenSnapshot();
        out->lookup_us.Add(timer.Time(kLookup, "storage.lookup", [&] {
          auto found = db->storage().IndexLookupSnapshot(
              "Flights", "dest", Value::String(dest), snapshot.ts());
          (void)found.ok();
        }));
      } else {
        out->write_us.Add(us);
      }
      const CodecTimes resp =
          RoundTrip(&timer, kEncodeResp, kDecodeResp,
                    net::ExecuteResponse{i, Status::OK(), *result}, out);
      s_enc_resp.Add(resp.encode_us);
      s_dec_resp.Add(resp.decode_us);
      resp_bytes += static_cast<double>(resp.bytes);
    }
    spans->push_back(Span{SpanId(i, kRoot), 0, i,
                          submit ? "op.submission" : "op.statement",
                          root_start, timer.Now()});
  }
  out->wall_s = std::chrono::duration<double>(Clock::now() - epoch).count();
  out->ops = leg.ops.size();

  for (size_t i = 0; i < leg.ops.size(); ++i) {
    if (!handles[i].has_value()) continue;
    const EntangledHandle& h = *handles[i];
    OpResult& r = results[i];
    const auto outcome = h.Outcome();
    r.final = outcome.has_value() && outcome->ok() ? Outcome::kOk
                                                   : Outcome::kNone;
    if (r.final != Outcome::kOk) continue;
    const std::vector<Tuple> answers = h.Answers();
    if (!answers.empty()) r.fno = answers[0].at(1).int64_value();
    if (answers.size() > 1) r.hid = answers[1].at(1).int64_value();
  }
  checker->CheckLeg(leg, results);

  out->rows_per_select = rows.Mean();
  out->resp_bytes_per_stmt =
      statements == 0 ? 0 : resp_bytes / static_cast<double>(statements);
  out->stmt_stage_p50_sum_us = s_enc_req.Median() + s_dec_req.Median() +
                               s_prepare.Median() + s_exec.Median() +
                               s_enc_resp.Median() + s_dec_resp.Median();
  return Status::OK();
}

}  // namespace ytbench

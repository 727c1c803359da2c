// The traced in-process replay: a leg's op stream sent straight into a
// fresh engine, one op at a time, with a span around each public call
// of each layer.
#ifndef YTBENCH_REPLAY_H_
#define YTBENCH_REPLAY_H_

#include <map>
#include <string>

#include "checker.h"
#include "latency.h"
#include "server/youtopia.h"
#include "trace.h"
#include "workload.h"

namespace ytbench {

struct ReplayResult {
  /// Span durations by layer call.
  Samples encode_us, decode_us, parse_us, prepare_hit_us, prepare_miss_us,
      select_us, write_us, lookup_us, submit_park_us, submit_close_us;
  /// Sum over statements of each statement's stage p50s, for the
  /// residual against the wire latency.
  double stmt_stage_p50_sum_us = 0;
  double rows_per_select = 0;
  double resp_bytes_per_stmt = 0;
  size_t ops = 0;
  double wall_s = 0;
};

/// Replays `leg` against `db` (loaded with `data`), checking responses
/// with `checker` and recording spans into `tracer`.
youtopia::Status Replay(youtopia::Youtopia* db, const Dataset& data,
                        const Leg& leg, Tracer* tracer, Checker* checker,
                        ReplayResult* out);

}  // namespace ytbench

#endif  // YTBENCH_REPLAY_H_

// Workload definitions and seeded input generation: the tables the
// engine is loaded with and the timed op streams sent to it. Nothing
// here touches the engine; the same seed always yields the same data
// and the same streams.
#ifndef YTBENCH_WORKLOAD_H_
#define YTBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

namespace ytbench {

/// xoshiro256** seeded through splitmix64: portable and reproducible
/// (std:: distributions are implementation-defined, so none is used).
class Rng {
 public:
  explicit Rng(uint64_t seed);
  uint64_t Next();
  /// Uniform in [0, 1).
  double Uniform();
  /// Uniform in [0, n).
  uint64_t Below(uint64_t n);
  /// Exponential with the given mean.
  double Exp(double mean);

 private:
  uint64_t s_[4];
};

struct DataSpec {
  int dests = 8;
  int flights_per_dest = 512;
  int hotels_per_city = 32;
  /// Distinct Flights rows the decrement mix draws from (Zipf ranks).
  int hot_rows = 0;
  double zipf_s = 0.9;
};

struct Flight {
  int64_t fno = 0;
  int dest = 0;
  int64_t price = 0;
};

struct Hotel {
  int64_t hid = 0;
  int city = 0;
};

/// The generated database: what the engine is loaded with, plus the
/// facts the correctness checks compare against.
struct Dataset {
  std::vector<std::string> dest_names;
  std::vector<Flight> flights;
  std::vector<Hotel> hotels;
  int64_t seats_per_flight = 1000;
  /// Browse texts and the row count each must return.
  std::vector<std::string> browse_sql;
  std::vector<uint32_t> browse_rows;
  std::vector<int> browse_dest;
  /// Decrement targets by Zipf rank (hottest first) and the rank CDF.
  std::vector<int64_t> hot_fnos;
  std::vector<double> hot_cdf;
  /// Schema then data, one statement per entry.
  std::vector<std::string> load_script;

  /// Destination index of a flight / city index of a hotel; -1 if the
  /// number is not in the dataset.
  int DestOfFlight(int64_t fno) const;
  int CityOfHotel(int64_t hid) const;
};

Dataset MakeDataset(const DataSpec& spec, uint64_t seed);

enum class OpKind : uint8_t { kBrowse, kBook, kDecrement, kSubmit };

/// One scheduled request of a leg.
struct Op {
  /// Scheduled send time, seconds from the leg's start.
  double at_s = 0;
  OpKind kind = OpKind::kBrowse;
  /// Connection index within the op's role (statement or submission).
  uint8_t conn = 0;
  /// Member index within its group (kSubmit only).
  uint8_t member = 0;
  /// kBrowse: browse text index. kBook/kDecrement: fno. kSubmit: group.
  int64_t key = 0;
  /// Traveler of a book, user of a submission; empty otherwise.
  std::string name;
  std::string sql;
};

/// One coordination group of a leg.
struct Group {
  uint8_t size = 0;
  bool hotel = false;
  int dest = 0;
  /// Scheduled send time of the group's last member.
  double last_at_s = 0;
  /// Indices into Leg::ops of the members, in member order.
  std::vector<uint32_t> ops;
};

struct Leg {
  double seconds = 0;
  std::vector<Op> ops;  // sorted by at_s
  std::vector<Group> groups;
  size_t statements = 0;
  size_t submissions = 0;
};

struct WorkloadSpec {
  const char* name = "";
  const char* why = "";
  DataSpec data;
  /// Arrival mix (fractions summing to 1). A group counts as one
  /// arrival; its members follow with exponential partner delays.
  double browse = 0, book = 0, decrement = 0, group = 0;
  /// Of groups: flight pairs; the rest are 3-5 users booking a flight
  /// and a hotel together with all-to-all constraints.
  double pair_share = 1.0;
  double partner_delay_ms = 100;
  /// Arrivals per second on the reference leg.
  double ref_rate = 0;
  /// Ladder rates are ref_rate * kLadderStep^k; the climb starts at k.
  int ladder_start = 0;
  /// Shares of --seconds given to the reference leg and to each ladder
  /// step.
  double ref_share = 0.5;
  double step_share = 0.1;
  bool wal = false;
  int stmt_conns = 2;
  int submit_conns = 1;
  /// A ladder leg passes when these p90 latencies meet their limits
  /// (0 = not checked). p90, not p99: one stalled fsync or preempted
  /// vCPU moves a short leg's p99 but not its p90.
  double stmt_p90_limit_us = 0;
  double coord_p90_limit_ms = 0;
  /// max_rate_ops_s counts closed coordinations (else statements).
  bool rate_counts_groups = false;
};

/// Ratio between adjacent ladder rates (below every rate bound).
inline constexpr double kLadderStep = 1.07;

/// The frozen workloads; nullptr for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name);
const std::vector<WorkloadSpec>& AllWorkloads();

/// Generates one leg: Poisson arrivals at `rate` for `seconds`. Draws
/// depend only on (seed, stream); `tag` only prefixes the unique
/// literals, so the same stream can be re-sent under fresh names.
Leg MakeLeg(const WorkloadSpec& spec, const Dataset& data, uint64_t seed,
            uint64_t stream, const std::string& tag, double rate,
            double seconds);

}  // namespace ytbench

#endif  // YTBENCH_WORKLOAD_H_

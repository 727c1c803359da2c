#include "workload.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace ytbench {

namespace {

uint64_t SplitMix(uint64_t* x) {
  uint64_t z = (*x += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

std::string Quote(const std::string& s) { return "'" + s + "'"; }

/// Draws a Zipf rank from a precomputed CDF.
size_t ZipfRank(const std::vector<double>& cdf, double u) {
  const auto it = std::upper_bound(cdf.begin(), cdf.end(), u);
  return std::min<size_t>(static_cast<size_t>(it - cdf.begin()),
                          cdf.size() - 1);
}

/// Draws from a fixed multiset in blocks: each block holds every value
/// in its exact proportion, shuffled. Keeps a leg's mix exact while the
/// seed still decides the order.
class Stratified {
 public:
  Stratified(Rng* rng, std::vector<int> block)
      : rng_(rng), block_(std::move(block)), pos_(block_.size()) {}

  int Next() {
    if (pos_ == block_.size()) {
      for (size_t i = block_.size(); i > 1; --i) {
        std::swap(block_[i - 1], block_[rng_->Below(i)]);
      }
      pos_ = 0;
    }
    return block_[pos_++];
  }

 private:
  Rng* rng_;
  std::vector<int> block_;
  size_t pos_;
};

/// `count` copies of each value, per the given shares of `size`.
std::vector<int> Block(size_t size, const std::vector<double>& shares) {
  std::vector<int> block;
  for (size_t v = 0; v < shares.size(); ++v) {
    const auto n = static_cast<size_t>(std::lround(shares[v] * size));
    block.insert(block.end(), n, static_cast<int>(v));
  }
  return block;
}

std::string EntangledSql(const std::vector<std::string>& users, size_t self,
                         bool hotel, const std::string& dest) {
  const std::string me = Quote(users[self]);
  std::string sql = "SELECT " + me + ", fno INTO ANSWER Reservation";
  if (hotel) sql += ", " + me + ", hid INTO ANSWER HotelReservation";
  sql += " WHERE fno IN (SELECT fno FROM Flights WHERE dest = " +
         Quote(dest) + ")";
  if (hotel) {
    sql += " AND hid IN (SELECT hid FROM Hotels WHERE city = " + Quote(dest) +
           ")";
  }
  for (size_t j = 0; j < users.size(); ++j) {
    if (j == self) continue;
    sql += " AND (" + Quote(users[j]) + ", fno) IN ANSWER Reservation";
    if (hotel) {
      sql += " AND (" + Quote(users[j]) + ", hid) IN ANSWER HotelReservation";
    }
  }
  return sql + " CHOOSE 1";
}

// Reference rates are about a fifth to a third of each workload's
// knee on a 4-vCPU x86 VM (see ytbench/README.md), low enough that the
// host's CPU steal does not push them into queueing collapse; they are
// frozen so every run and every commit offers the same load.
std::vector<WorkloadSpec> BuildWorkloads() {
  std::vector<WorkloadSpec> all;

  WorkloadSpec browse;
  browse.name = "browse_book";
  browse.why =
      "statement path only: 64 cached browse texts plus uncached book "
      "inserts, no WAL; coordination is a 2% trickle";
  browse.data = DataSpec{8, 512, 32, 0, 0.9};
  browse.browse = 0.88;
  browse.book = 0.10;
  browse.group = 0.02;
  browse.pair_share = 1.0;
  browse.ref_rate = 1200;
  browse.ladder_start = 18;
  browse.ref_share = 0.55;
  browse.stmt_conns = 2;
  browse.submit_conns = 1;
  browse.stmt_p90_limit_us = 2000;
  all.push_back(browse);

  WorkloadSpec coord;
  coord.name = "coordinate";
  coord.why =
      "the paper's workload: flight pairs and 3-5 user flight+hotel "
      "groups over 2048-flight domains, beside cheap browses";
  coord.data = DataSpec{4, 2048, 256, 0, 0.9};
  coord.browse = 0.90;
  coord.group = 0.10;
  coord.pair_share = 0.6;
  coord.ref_rate = 200;
  coord.ladder_start = 14;
  coord.step_share = 0.15;
  coord.stmt_conns = 1;
  coord.submit_conns = 2;
  coord.coord_p90_limit_ms = 100;
  coord.rate_counts_groups = true;
  all.push_back(coord);

  WorkloadSpec durable;
  durable.name = "book_durable";
  durable.why =
      "write-heavy with the WAL on: inserts, Zipf counter updates that "
      "overflow the plan cache, browses and flight pairs";
  durable.data = DataSpec{8, 512, 32, 2048, 0.9};
  durable.browse = 0.15;
  durable.book = 0.50;
  durable.decrement = 0.30;
  durable.group = 0.05;
  durable.pair_share = 1.0;
  durable.ref_rate = 300;
  durable.ladder_start = 21;
  durable.wal = true;
  durable.stmt_conns = 2;
  durable.submit_conns = 1;
  durable.stmt_p90_limit_us = 10000;
  all.push_back(durable);
  return all;
}

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t x = seed;
  for (uint64_t& s : s_) s = SplitMix(&x);
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

double Rng::Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

uint64_t Rng::Below(uint64_t n) {
  return n == 0 ? 0 : static_cast<uint64_t>(Uniform() * static_cast<double>(n));
}

double Rng::Exp(double mean) { return -std::log1p(-Uniform()) * mean; }

int Dataset::DestOfFlight(int64_t fno) const {
  const int64_t i = fno - (flights.empty() ? 0 : flights.front().fno);
  if (i < 0 || i >= static_cast<int64_t>(flights.size())) return -1;
  return flights[static_cast<size_t>(i)].dest;
}

int Dataset::CityOfHotel(int64_t hid) const {
  const int64_t i = hid - (hotels.empty() ? 0 : hotels.front().hid);
  if (i < 0 || i >= static_cast<int64_t>(hotels.size())) return -1;
  return hotels[static_cast<size_t>(i)].city;
}

Dataset MakeDataset(const DataSpec& spec, uint64_t seed) {
  Rng rng(seed * 0x100000001B3ull + 17);
  Dataset d;
  for (int i = 0; i < spec.dests; ++i) {
    d.dest_names.push_back("City" + std::to_string(i));
  }
  d.load_script = {
      "CREATE TABLE Flights (fno INT NOT NULL, dest TEXT NOT NULL, "
      "price INT NOT NULL, seats INT NOT NULL)",
      "CREATE TABLE Hotels (hid INT NOT NULL, city TEXT NOT NULL, "
      "price INT NOT NULL)",
      "CREATE TABLE Reservation (traveler TEXT NOT NULL, fno INT NOT NULL)",
      "CREATE TABLE HotelReservation (traveler TEXT NOT NULL, "
      "hid INT NOT NULL)",
      "CREATE INDEX ON Flights (dest)",
      "CREATE INDEX ON Flights (fno)",
      "CREATE INDEX ON Hotels (city)",
      "CREATE INDEX ON Reservation (traveler)",
      "CREATE INDEX ON HotelReservation (traveler)",
  };

  // Flights are numbered consecutively; destinations are interleaved so
  // a dest's rows are spread over the heap.
  const auto dests = static_cast<size_t>(spec.dests);
  const size_t total_flights =
      dests * static_cast<size_t>(spec.flights_per_dest);
  std::string batch;
  size_t in_batch = 0;
  auto flush = [&](const char* table) {
    if (in_batch == 0) return;
    d.load_script.push_back("INSERT INTO " + std::string(table) + " VALUES " +
                            batch);
    batch.clear();
    in_batch = 0;
  };
  auto add_row = [&](const char* table, const std::string& row) {
    if (in_batch > 0) batch += ", ";
    batch += row;
    if (++in_batch == 128) flush(table);
  };
  for (size_t i = 0; i < total_flights; ++i) {
    Flight f;
    f.fno = 10000 + static_cast<int64_t>(i);
    f.dest = static_cast<int>(i % dests);
    f.price = 100 + static_cast<int64_t>(rng.Below(1000));
    d.flights.push_back(f);
    add_row("Flights", "(" + std::to_string(f.fno) + ", " +
                           Quote(d.dest_names[f.dest]) + ", " +
                           std::to_string(f.price) + ", " +
                           std::to_string(d.seats_per_flight) + ")");
  }
  flush("Flights");
  const size_t total_hotels =
      dests * static_cast<size_t>(spec.hotels_per_city);
  for (size_t i = 0; i < total_hotels; ++i) {
    Hotel h;
    h.hid = 500000 + static_cast<int64_t>(i);
    h.city = static_cast<int>(i % dests);
    d.hotels.push_back(h);
    add_row("Hotels", "(" + std::to_string(h.hid) + ", " +
                          Quote(d.dest_names[h.city]) + ", " +
                          std::to_string(60 + rng.Below(400)) + ")");
  }
  flush("Hotels");

  // 64 browse texts: dests x price caps, caps spaced so a browse returns
  // about 25 to 200 rows whatever the domain size.
  const int caps = std::max(1, 64 / spec.dests);
  for (int dest = 0; dest < spec.dests; ++dest) {
    for (int c = 0; c < caps; ++c) {
      const double want = 25.0 + 175.0 * c / std::max(1, caps - 1);
      const int64_t cap =
          100 + static_cast<int64_t>(std::lround(1000.0 * want /
                                                 spec.flights_per_dest));
      uint32_t rows = 0;
      for (const Flight& f : d.flights) {
        if (f.dest == dest && f.price < cap) ++rows;
      }
      d.browse_sql.push_back("SELECT fno, price FROM Flights WHERE dest = " +
                             Quote(d.dest_names[dest]) +
                             " AND price < " + std::to_string(cap));
      d.browse_rows.push_back(rows);
      d.browse_dest.push_back(dest);
    }
  }

  // Decrement targets: a seeded sample of flights ranked by Zipf weight.
  if (spec.hot_rows > 0) {
    std::vector<int64_t> pool;
    for (const Flight& f : d.flights) pool.push_back(f.fno);
    const size_t hot =
        std::min(static_cast<size_t>(spec.hot_rows), pool.size());
    for (size_t i = 0; i < hot; ++i) {
      std::swap(pool[i], pool[i + rng.Below(pool.size() - i)]);
      d.hot_fnos.push_back(pool[i]);
    }
    double total = 0;
    for (size_t r = 1; r <= d.hot_fnos.size(); ++r) {
      total += 1.0 / std::pow(static_cast<double>(r), spec.zipf_s);
      d.hot_cdf.push_back(total);
    }
    for (double& c : d.hot_cdf) c /= total;
  }
  return d;
}

const std::vector<WorkloadSpec>& AllWorkloads() {
  static const std::vector<WorkloadSpec> all = BuildWorkloads();
  return all;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : AllWorkloads()) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

Leg MakeLeg(const WorkloadSpec& spec, const Dataset& data, uint64_t seed,
            uint64_t stream, const std::string& tag, double rate,
            double seconds) {
  Rng rng(seed * 0x9E3779B97F4A7C15ull + stream * 0xD1B54A32D192ED03ull + 1);
  Leg leg;
  leg.seconds = seconds;
  leg.ops.reserve(static_cast<size_t>(rate * seconds * 1.3) + 16);
  const double max_delay_s = 8 * spec.partner_delay_ms / 1000.0;
  // Arrival kinds, pair-vs-hotel groups and hotel group sizes are drawn
  // in exact proportions per block.
  enum Kind { kBrowse, kBook, kDecrement, kGroup };
  Stratified kinds(&rng, Block(100, {spec.browse, spec.book, spec.decrement,
                                     spec.group}));
  Stratified pairs(&rng, Block(10, {spec.pair_share, 1 - spec.pair_share}));
  Stratified sizes(&rng, {3, 4, 5});
  size_t stmt_rr = 0;
  double t = 0;
  for (;;) {
    t += rng.Exp(1.0 / rate);
    if (t >= seconds) break;
    const int kind = kinds.Next();
    Op op;
    op.at_s = t;
    if (kind != kGroup) {
      op.conn = static_cast<uint8_t>(stmt_rr++ %
                                     static_cast<size_t>(spec.stmt_conns));
      if (kind == kBrowse) {
        op.kind = OpKind::kBrowse;
        op.key = static_cast<int64_t>(rng.Below(data.browse_sql.size()));
        op.sql = data.browse_sql[static_cast<size_t>(op.key)];
      } else if (kind == kBook) {
        op.kind = OpKind::kBook;
        op.key = data.flights[rng.Below(data.flights.size())].fno;
        op.name = tag + "b" + std::to_string(leg.ops.size());
        op.sql = "INSERT INTO Reservation VALUES (" + Quote(op.name) + ", " +
                 std::to_string(op.key) + ")";
      } else {
        op.kind = OpKind::kDecrement;
        op.key = data.hot_fnos[ZipfRank(data.hot_cdf, rng.Uniform())];
        op.sql = "UPDATE Flights SET seats = seats - 1 WHERE fno = " +
                 std::to_string(op.key);
      }
      ++leg.statements;
      leg.ops.push_back(std::move(op));
      continue;
    }
    // A coordination group: the first member now, the others after
    // exponential partner delays.
    Group g;
    const bool pair = pairs.Next() == 0;
    g.size = static_cast<uint8_t>(pair ? 2 : sizes.Next());
    g.hotel = !pair;
    g.dest = static_cast<int>(rng.Below(data.dest_names.size()));
    const uint32_t gid = static_cast<uint32_t>(leg.groups.size());
    std::vector<std::string> users;
    for (int m = 0; m < g.size; ++m) {
      users.push_back(tag + "g" + std::to_string(gid) + "m" +
                      std::to_string(m));
    }
    for (uint8_t m = 0; m < g.size; ++m) {
      Op member;
      member.kind = OpKind::kSubmit;
      member.at_s =
          m == 0 ? t : t + std::min(rng.Exp(spec.partner_delay_ms / 1000.0),
                                    max_delay_s);
      member.member = m;
      member.conn = static_cast<uint8_t>(
          (gid + m) % static_cast<uint32_t>(spec.submit_conns));
      member.key = gid;
      member.name = users[m];
      member.sql = EntangledSql(users, m, g.hotel, data.dest_names[g.dest]);
      g.last_at_s = std::max(g.last_at_s, member.at_s);
      ++leg.submissions;
      leg.ops.push_back(std::move(member));
    }
    leg.groups.push_back(std::move(g));
  }
  std::stable_sort(leg.ops.begin(), leg.ops.end(),
                   [](const Op& a, const Op& b) { return a.at_s < b.at_s; });
  for (uint32_t i = 0; i < leg.ops.size(); ++i) {
    const Op& op = leg.ops[i];
    if (op.kind == OpKind::kSubmit) {
      leg.groups[static_cast<size_t>(op.key)].ops.push_back(i);
    }
  }
  // Group members in member order.
  for (Group& g : leg.groups) {
    std::sort(g.ops.begin(), g.ops.end(), [&](uint32_t a, uint32_t b) {
      return leg.ops[a].member < leg.ops[b].member;
    });
  }
  return leg;
}

}  // namespace ytbench

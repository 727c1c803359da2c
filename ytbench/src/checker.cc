#include "checker.h"

namespace ytbench {

namespace {
constexpr size_t kMaxMessages = 20;
}  // namespace

void Checker::Fail(const std::string& message) {
  ++count_;
  if (messages_.size() < kMaxMessages) messages_.push_back(message);
}

void Checker::CheckLeg(const Leg& leg, const std::vector<OpResult>& results) {
  if (results.size() != leg.ops.size()) {
    Fail("result count does not match the leg's op count");
    return;
  }
  for (size_t i = 0; i < leg.ops.size(); ++i) {
    const Op& op = leg.ops[i];
    const OpResult& r = results[i];
    switch (op.kind) {
      case OpKind::kBrowse:
        if (r.final == Outcome::kOk &&
            r.rows != data_->browse_rows[static_cast<size_t>(op.key)]) {
          Fail("browse '" + op.sql + "' returned " + std::to_string(r.rows) +
               " rows, data implies " +
               std::to_string(data_->browse_rows[static_cast<size_t>(op.key)]));
        }
        break;
      case OpKind::kBook:
        if (r.final == Outcome::kOk) reservations_.emplace(op.name, op.key);
        break;
      case OpKind::kDecrement:
        if (r.final == Outcome::kOk) {
          ++acked_decrements_;
        } else if (r.final != Outcome::kShed) {
          ++unknown_decrements_;  // shed means never applied
        }
        break;
      case OpKind::kSubmit:
        break;
    }
  }

  for (const Group& g : leg.groups) {
    size_t closed = 0;
    for (uint32_t idx : g.ops) {
      if (results[idx].final == Outcome::kOk) ++closed;
    }
    const Op& first = leg.ops[g.ops.front()];
    const std::string label = "group of " + first.name;
    if (closed == 0) {
      for (uint32_t idx : g.ops) absent_.insert(leg.ops[idx].name);
      continue;
    }
    if (closed != g.ops.size()) {
      Fail(label + " is half-matched: " + std::to_string(closed) + " of " +
           std::to_string(g.ops.size()) + " members answered");
      continue;
    }
    const OpResult& lead = results[g.ops.front()];
    for (uint32_t idx : g.ops) {
      const OpResult& r = results[idx];
      const std::string& user = leg.ops[idx].name;
      if (r.fno != lead.fno) {
        Fail(label + ": members got different flights (" +
             std::to_string(lead.fno) + " vs " + std::to_string(r.fno) + ")");
      }
      if (g.hotel && r.hid != lead.hid) {
        Fail(label + ": members got different hotels (" +
             std::to_string(lead.hid) + " vs " + std::to_string(r.hid) + ")");
      }
      reservations_.emplace(user, r.fno);
      if (g.hotel) hotel_reservations_.emplace(user, r.hid);
    }
    if (data_->DestOfFlight(lead.fno) != g.dest) {
      Fail(label + ": flight " + std::to_string(lead.fno) +
           " does not fly to " + data_->dest_names[g.dest]);
    }
    if (g.hotel && data_->CityOfHotel(lead.hid) != g.dest) {
      Fail(label + ": hotel " + std::to_string(lead.hid) + " is not in " +
           data_->dest_names[g.dest]);
    }
  }
}

void Checker::CheckState(const TableState& state, const std::string& when) {
  const std::set<std::pair<std::string, int64_t>> rows(
      state.reservations.begin(), state.reservations.end());
  const std::set<std::pair<std::string, int64_t>> hotel_rows(
      state.hotel_reservations.begin(), state.hotel_reservations.end());
  for (const auto& want : reservations_) {
    if (rows.count(want) == 0) {
      Fail(when + ": acknowledged Reservation (" + want.first + ", " +
           std::to_string(want.second) + ") is missing");
    }
  }
  for (const auto& want : hotel_reservations_) {
    if (hotel_rows.count(want) == 0) {
      Fail(when + ": acknowledged HotelReservation (" + want.first + ", " +
           std::to_string(want.second) + ") is missing");
    }
  }
  for (const auto& row : state.reservations) {
    if (absent_.count(row.first) != 0) {
      Fail(when + ": " + row.first + " of an unclosed group has a Reservation");
    }
  }
  for (const auto& row : state.hotel_reservations) {
    if (absent_.count(row.first) != 0) {
      Fail(when + ": " + row.first +
           " of an unclosed group has a HotelReservation");
    }
  }
  const int64_t initial = data_->seats_per_flight *
                          static_cast<int64_t>(data_->flights.size());
  const int64_t taken = initial - state.seats_sum;
  if (taken < acked_decrements_ ||
      taken > acked_decrements_ + unknown_decrements_) {
    Fail(when + ": seat counters dropped by " + std::to_string(taken) +
         ", but " + std::to_string(acked_decrements_) +
         " decrements were acknowledged (" +
         std::to_string(unknown_decrements_) + " unknown)");
  }
}

}  // namespace ytbench

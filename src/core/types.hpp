// Fundamental scalar types of the scheduling model.
//
// Time is measured in 64-bit integer ticks. The paper's instances are
// rational with small denominators (e.g. the Fig. 3 adversary uses durations
// 1/k), so generators emit the scaled-integer equivalent -- exactly as the
// paper itself does when it prints the alpha = 1/3 instance scaled by k = 6
// (C* = 6, C_LSRC = 31). Integer ticks make feasibility checks exact and
// schedules hashable; exact ratios are computed with util/rational.hpp.
#pragma once

#include <cstdint>
#include <limits>

namespace resched {

using Time = std::int64_t;
// Processor counts are 64-bit as well: work areas (q * p) flow through the
// same checked arithmetic as times.
using ProcCount = std::int64_t;
// Position of a job inside its Instance (dense, 0-based).
using JobId = std::int32_t;
// Position of a reservation inside its Instance (dense, 0-based).
using ReservationId = std::int32_t;

// A time safely above every horizon we can construct, yet far enough from
// INT64_MAX that adding a duration to it cannot overflow.
inline constexpr Time kTimeInfinity = std::numeric_limits<Time>::max() / 4;

}  // namespace resched

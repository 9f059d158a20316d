// Inline fault schedules for tests: the v1 data rows alone, without the
// magic and column-header lines every schedule document carries.
#pragma once

#include <string>
#include <string_view>

#include "fault/schedule.hpp"

namespace msehsim::reference {

/// Parses @p rows ("time_s,fault,target,a,b,count,spread_s" lines) as a
/// whole v1 schedule document.
inline fault::Schedule schedule_rows(std::string_view rows) {
  return fault::Schedule::parse(std::string(fault::Schedule::kMagic) + "\n" +
                                std::string(fault::Schedule::kHeader) + "\n" +
                                std::string(rows));
}

}  // namespace msehsim::reference

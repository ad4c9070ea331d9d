// Forwarder for the perfbench load generator (perfbench/src/main.cpp),
// which still names dist::self_exe_path; it is this header's only reason
// to exist. Worker process management lives in net/process.hpp.
#pragma once

#include "net/process.hpp"

namespace ncb::dist {

using net::self_exe_path;

}  // namespace ncb::dist

// Reassociation-flagged compilation of the strided SoA step body.
//
// Built with -ffp-contract=fast -fassociative-math -fno-signed-zeros
// -fno-trapping-math (see src/systems/CMakeLists.txt), giving the compiler
// license to fuse multiply-adds and reorder reductions in the width-strided
// loops — the headroom RunOptions::allow_reassociation opts into. The
// function name is distinct from the strict twin and every shared kernel is
// force-inlined, so no code compiled under these flags can be selected by
// the linker for the default (byte-exact) path.
#include "systems/soa_state.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#define MSEHSIM_SOA_STEP_FN soa_step_range_reassoc_impl
#include "systems/soa_step_body.inc"
#undef MSEHSIM_SOA_STEP_FN

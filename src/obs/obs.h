// Compile-time switch for the lumen::obs telemetry subsystem.
//
// Define LUMEN_OBS_DISABLED (globally via -DLUMEN_OBS_DISABLED=ON at
// configure time) and every counter increment, histogram record, trace
// span and profiler hook compiles down to nothing.  Each obs class is
// defined once: its hot write methods branch on kObsEnabled with
// `if constexpr` inside the header, so obs-off call sites inline to
// nothing and never need #ifdef guards.  The cold paths (export, pump,
// watchdog, server, interner) are compiled in both builds and check
// kObsEnabled once at their entry points: an obs-off registry hands out
// one dummy per instrument kind, the span and profiler rings hold no
// slots, the pump starts no thread, the server never binds, and the
// flight recorder writes no dump.
//
// The classes whose code depends on the switch live in an inline
// namespace named after it (lumen::obs::enabled / lumen::obs::disabled),
// so a binary that mixes obs-on and obs-off translation units fails to
// link instead of silently breaking the one-definition rule.
#pragma once

#if defined(LUMEN_OBS_DISABLED)
#define LUMEN_OBS_ENABLED 0
#define LUMEN_OBS_MODE_NAMESPACE disabled
#else
#define LUMEN_OBS_ENABLED 1
#define LUMEN_OBS_MODE_NAMESPACE enabled
#endif

namespace lumen::obs {

/// True unless the build defines LUMEN_OBS_DISABLED.
inline constexpr bool kObsEnabled = LUMEN_OBS_ENABLED != 0;

}  // namespace lumen::obs

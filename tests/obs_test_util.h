// Shared gate for tests that assert recorded telemetry.
#pragma once

#include <gtest/gtest.h>

#include "obs/obs.h"

/// Skips the calling test when telemetry is compiled out
/// (LUMEN_OBS_DISABLED): there is no recorded telemetry to assert on.
/// What the obs-off surface does instead is pinned by DisabledObsTest.
#define LUMEN_REQUIRE_OBS()                                     \
  do {                                                          \
    if constexpr (!::lumen::obs::kObsEnabled)                   \
      GTEST_SKIP() << "telemetry compiled out (obs-off build)"; \
  } while (false)

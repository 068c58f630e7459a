// Minimal check for the benchmark's tests: prints the failed condition and
// fails the test process. Stays on in release builds, unlike assert.
#pragma once

#include <cstdio>
#include <cstdlib>

#define EXPECT(cond)                                                      \
  do {                                                                    \
    if (!(cond)) {                                                        \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__,    \
                   #cond);                                                \
      std::exit(1);                                                       \
    }                                                                     \
  } while (0)

// stats::Rng, the generator's historical name, is an alias of the
// Philox counter stream (declared in stats/philox.h): there is one
// random substrate. This header stays for callers that include it.

#ifndef RANDRECON_STATS_RNG_H_
#define RANDRECON_STATS_RNG_H_

#include "stats/philox.h"

#endif  // RANDRECON_STATS_RNG_H_

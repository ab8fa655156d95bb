// Forwarding header: Parti ghost schedules live with their owner,
// parti::GhostExchanger, which builds and compresses its own.  Kept only so
// existing includes of this path resolve.
#pragma once

#include "parti/ghost.h"

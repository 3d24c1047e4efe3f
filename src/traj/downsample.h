// Keep-ratio downsampling (Sec. V-A5 of the paper): a complete
// map-matched trajectory is turned into a low-sampling-rate one by
// randomly removing points at a configured keep ratio.
#ifndef LIGHTTR_TRAJ_DOWNSAMPLE_H_
#define LIGHTTR_TRAJ_DOWNSAMPLE_H_

#include "common/rng.h"
#include "traj/trajectory.h"

namespace lighttr::traj {

/// Produces an incomplete trajectory that keeps each interior point with
/// probability `keep_ratio`. The first and last points are always kept so
/// the recovery problem is interpolation (as in the paper, where six
/// points between two consecutive kept points are restored on average at
/// keep ratio 12.5%).
IncompleteTrajectory MakeIncomplete(MatchedTrajectory trajectory,
                                    double keep_ratio, Rng* rng);

}  // namespace lighttr::traj

#endif  // LIGHTTR_TRAJ_DOWNSAMPLE_H_

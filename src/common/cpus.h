#ifndef FEWSTATE_COMMON_CPUS_H_
#define FEWSTATE_COMMON_CPUS_H_

#include <cstddef>

namespace fewstate {

/// \brief CPUs the calling thread may run on: its affinity mask (which
/// `taskset` and cpusets narrow), else every online CPU; at least 1.
/// `ShardedEngine` sizes its drain lanes with it, and `RecoverReplica`
/// its replay lanes.
size_t UsableCpus();

}  // namespace fewstate

#endif  // FEWSTATE_COMMON_CPUS_H_

#ifndef PODIUM_SHARD_SCHEME_H_
#define PODIUM_SHARD_SCHEME_H_

#include "podium/groups/group_index.h"

namespace podium::shard {

/// The group derivation lives in groups/group_index.h; the sharded engine
/// slices it with GroupIndex::BuildSlices. This name stays for callers
/// that still spell it under shard::.
using podium::BuildGroupScheme;

}  // namespace podium::shard

#endif  // PODIUM_SHARD_SCHEME_H_

// JSON wire form of configuration spaces and configurations.
//
// A client creating a session ships its ConfigSpace inline as JSON; every
// suggest response carries the proposed configuration the same way. The
// grammar mirrors ParamSpec's factory API:
//
//   space  := {"params": [param, ...]}
//   param  := {"name": s, "kind": "int",          "lo": n, "hi": n,
//              "log"?: b, cond?}
//           | {"name": s, "kind": "int-choice",   "choices": [n, ...], cond?}
//           | {"name": s, "kind": "continuous",   "lo": n, "hi": n,
//              "log"?: b, cond?}
//           | {"name": s, "kind": "categorical",  "categories": [s, ...],
//              cond?}
//           | {"name": s, "kind": "bool", cond?}
//   cond   := "only_when": {"parent": s, "values": [s, ...]}
//   config := {"<param name>": value, ...}
//
// The space codec lives here: only the service ships spaces. Configs use
// the journal's codec (core/session_io); this layer only maps its errors
// onto the protocol's typed codes. Malformed space documents raise
// ServiceError("invalid-space") with the offending parameter named; the
// round trip space -> JSON -> space is exact (kinds, bounds, menus,
// conditions).
#pragma once

#include "config/config_space.h"
#include "core/session_io.h"
#include "util/json.h"

namespace autodml::service {

util::JsonValue space_to_json(const conf::ConfigSpace& space);

/// Builds a space from its wire form. Throws ServiceError(invalid-space)
/// on malformed documents (ConfigSpace::add rejections included).
conf::ConfigSpace space_from_json(const util::JsonValue& value);

/// Name -> value object, exactly as in journal records.
using core::config_to_json;

/// core::config_from_json; its rejections (unknown names, ill-typed or
/// out-of-range values) throw ServiceError(bad-request).
conf::Config config_from_json(const util::JsonValue& value,
                              const conf::ConfigSpace& space);

}  // namespace autodml::service

// Package nlevel is a name shim over internal/core, where the n-level
// program-sequence formalism lives. It exists only because bench/micro.go
// (frozen while benchmark rows are compared across PRs) calls
// nlevel.RelaxedFullOrder(g.Scheme()); the next benchmark PR retargets that
// call to core.RelaxedFullOrder and deletes this package. Nothing else may
// import it.
package nlevel

import "flexftl/internal/core"

// Scheme and Page are core's types.
type (
	Scheme = core.Scheme
	Page   = core.Page
)

// RelaxedFullOrder is core.RelaxedFullOrder.
func RelaxedFullOrder(s Scheme) []Page { return core.RelaxedFullOrder(s) }

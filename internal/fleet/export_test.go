package fleet

// RefFleet exposes the reference registry (reference_test.go) to the
// external differential test, which needs the conformance corpus and so
// cannot live inside this package.
type RefFleet = refFleet

// NewRefFleet builds an empty reference registry with shards lock domains.
func NewRefFleet(shards int) *RefFleet { return newRefFleet(shards) }

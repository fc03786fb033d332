// Fixture for //spio:allow suppression directives (directive.go):
// a well-formed directive marks the covered finding Suppressed, a
// directive without a reason or naming an unknown analyzer is itself a
// finding, and a directive that suppresses nothing is stale.
package suppress

import "spio/internal/particle"

// Suppressed: the directive on the line above covers the finding.
func suppressedBlank() *particle.Schema {
	//spio:allow errdrop -- demo: deliberately blanked error
	s, _ := particle.NewSchema(nil)
	return s
}

// The same shape without a directive stays a live finding.
func unsuppressedBlank() *particle.Schema {
	s, _ := particle.NewSchema(nil)
	return s
}

// A directive without a reason suppresses nothing and is reported; the
// blanked error stays a live finding too.
func missingReason() *particle.Schema {
	//spio:allow errdrop
	s, _ := particle.NewSchema(nil)
	return s
}

// A typo'd analyzer name must not silently stop suppressing.
func unknownAnalyzer() *particle.Schema {
	//spio:allow errdropp -- typo
	s, _ := particle.NewSchema(nil)
	return s
}

// A stale allow: nothing on this or the next line trips errdrop.
//
//spio:allow errdrop -- stale: the hazard is long gone
func nothingHere() {}

// Package supfix exercises the suppression machinery: a justified
// directive silences its finding, a wrong-pass directive does not, a
// reason-less directive is itself reported (pass "suppress") and
// suppresses nothing, and the "all" wildcard covers every pass. The
// vehicle is errflow's dropped-decoder-error rule.
package supfix

// DecodeThing matches the project's decoder naming convention.
func DecodeThing(b []byte) (int, error) {
	return len(b), nil
}

// Good drops the error, but the justified directive suppresses the finding.
func Good(b []byte) int {
	//lint:ignore errflow fixture: the input was validated by the caller
	v, _ := DecodeThing(b)
	return v
}

// WrongPass suppresses a different pass; the errflow finding survives.
func WrongPass(b []byte) int {
	//lint:ignore lockorder fixture: names the wrong pass on purpose
	v, _ := DecodeThing(b)
	return v
}

// Malformed omits the mandatory reason: the directive is reported as a
// "suppress" finding and the dropped error is reported too.
func Malformed(b []byte) int {
	//lint:ignore errflow
	v, _ := DecodeThing(b)
	return v
}

// Wildcard uses the "all" pass name to cover any finding on the line.
func Wildcard(b []byte) int {
	//lint:ignore all fixture: wildcard suppression
	v, _ := DecodeThing(b)
	return v
}

// Unused carries a directive with nothing left to suppress — the code
// it once excused was fixed. The stale directive is itself reported.
func Unused(b []byte) (int, error) {
	//lint:ignore errflow fixture: stale, the dropped error below was fixed
	return DecodeThing(b)
}

// UnknownPass names a pass that does not exist (a typo): the directive
// is reported and the dropped error it meant to excuse is reported too.
func UnknownPass(b []byte) int {
	//lint:ignore errflo fixture: typo for errflow
	v, _ := DecodeThing(b)
	return v
}

package engine

// Check is outside the scoped file; API-misuse panics are fine here.
func Check(ok bool) {
	if !ok {
		panic("misuse")
	}
}

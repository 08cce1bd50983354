// Package engine is scoped file-by-file: only durability.go and recover.go
// are on the durability path; other.go panics freely.
package engine

// Flush is in the scoped file.
func Flush() {
	panic("flush failed") // want `panic on the durability path`
}

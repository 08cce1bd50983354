// Regression case for the fault-injector exemption: internal/storage's
// FaultStore panics *by design* — a panic models power loss and the crash
// harness recovers it. The analyzer must honor the reasoned directive even
// in an otherwise fully-scoped package.
package wal

// CrashError mirrors storage.CrashError.
type CrashError struct{ Write int }

func (e *CrashError) Error() string { return "injected crash" }

// InjectCrash models FaultStore.WriteAt hitting its armed crash point.
func InjectCrash(at int) {
	//lint:allowpanic models power loss; the crash harness recovers it
	panic(&CrashError{Write: at})
}

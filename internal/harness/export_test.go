package harness

// Hooks for the external tests (package harness_test), which may import
// internal/fabric where this package's own tests cannot.
var (
	TinySpec         = tinySpec
	CheckpointSpec   = checkpointSpec
	ErrSimulatedKill = errSimulatedKill
)

// SetCheckpointSaveHook installs (or, with nil, removes) the function run
// after every successful checkpoint save.
func SetCheckpointSaveHook(f func(key string, cycle int) error) { checkpointSaveHook = f }

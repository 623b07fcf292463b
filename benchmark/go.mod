// The benchmark is a module of its own so that it builds with its own build
// file; the module path keeps it inside the repro/ tree, which is what lets
// it import repro/internal/... .
module repro/benchmark

go 1.22

require repro v0.0.0

replace repro => ../

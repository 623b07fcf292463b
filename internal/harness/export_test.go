package harness

// TinySpec is a hook for the external tests (package harness_test), which may
// import internal/fabric where this package's own tests cannot.
var TinySpec = tinySpec

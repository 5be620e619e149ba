package core

// GridPinGraph gives the external tests (package core_test) the
// grid-tail pin graph.
var GridPinGraph = gridPinGraph

package core

// GridPinGraph gives the external tests (package core_test) the
// grid-tail pin graph.
var GridPinGraph = gridPinGraph

// MeetingSampledMap gives the external tests the map-based Sampling
// tail the grid kernels are pinned to.
var MeetingSampledMap = (*Engine).meetingSampledMap

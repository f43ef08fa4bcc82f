package simnet

// The zero-allocation gate and its helper, for the tests of package
// simnet_test, which drive the scheduler through the packages built on it.
const RaceEnabled = raceEnabled

var SteadyStateMallocs = steadyStateMallocs

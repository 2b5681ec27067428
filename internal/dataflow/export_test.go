package dataflow

// Populate and Day expose the package tests' fixture day to the external
// test package, whose tests need packages that import dataflow.
var (
	Populate = populate
	Day      = day
)

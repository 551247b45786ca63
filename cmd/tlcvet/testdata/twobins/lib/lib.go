// Package lib holds one function for each binary.
package lib

// A is reached from a.
func A() {}

// B is reached from b alone.
func B() {}

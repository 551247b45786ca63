// Package lib is the unreached fixture's library. For each kind of
// edge it holds one function a binary reaches through that edge and
// one that nothing reaches.
package lib

import "fmt"

// Direct call.

func Called() {}

func NeverCalled() {} // want unreached "NeverCalled is reached from no binary"

// Method value.

type Counter struct{ n int }

func (c *Counter) Inc() { c.n++ }

func (c *Counter) Dec() { c.n-- } // want unreached "Counter.Dec is reached from no binary"

// Function value passed as a callback.

func Each(xs []int, f func(int)) {
	for _, x := range xs {
		f(x)
	}
}

func Visit(int) {}

func Unvisited(int) {} // want unreached "Unvisited is reached from no binary"

// Generic instantiation.

func Map[T any](xs []T, f func(T) T) []T {
	out := make([]T, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}

func Unmapped[T any](x T) T { return x } // want unreached "Unmapped is reached from no binary"

// Package variable initializer and init.

var table = build()

func build() map[string]int { return map[string]int{"a": 1} }

func unbuilt() map[string]int { return nil } // want unreached "unbuilt is reached from no binary"

func init() { register() }

func register() { table["b"] = 2 }

func unregister() { delete(table, "b") } // want unreached "unregister is reached from no binary"

// Interface dispatch: a method is reached when its type is converted
// to an interface and a reached call, or the standard library the
// value is handed to, can invoke it.

type Shape interface{ Area() float64 }

type Square struct{ Side float64 }

func (s Square) Area() float64 { return s.Side * s.Side }

func (s Square) Perimeter() float64 { return 4 * s.Side } // want unreached "Square.Perimeter is reached from no binary"

type Level int

func (l Level) String() string { return fmt.Sprintf("level-%d", int(l)) }

// Silent is never converted to an interface, so fmt cannot call its
// String.
type Silent int

func (s Silent) String() string { return "silent" } // want unreached "Silent.String is reached from no binary"

// A Tamper-shaped model: the type is converted to the interface in a
// reached initializer, but the only call naming its method is dead.

type Tamper interface{ AdjustRX(n int64) int64 }

type Honest struct{}

func (Honest) AdjustRX(n int64) int64 { return n } // want unreached "Honest.AdjustRX is reached from no binary"

var Model Tamper = Honest{}

func count(t Tamper) int64 { return t.AdjustRX(1) } // want unreached "count is reached from no binary"

// A waived function is a root: what only it reaches is not reported.

//tlcvet:allow unreached — test support for the fixture's waiver edge
func Waived() { helper() }

func helper() {}

func deadHelper() {} // want unreached "deadHelper is reached from no binary"

func orphan() { deadHelper() } // want unreached "orphan is reached from no binary"

// A waiver on a function a binary reaches suppresses nothing.

//tlcvet:allow unreached — stale: main calls it // want staleallow "stale waiver"
func AlsoCalled() {}

// Reached only from the nested module's main, as perfbench reaches
// the root module.

func BenchOnly() {}

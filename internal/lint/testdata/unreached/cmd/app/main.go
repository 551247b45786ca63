// Command app is the unreached fixture's binary.
package main

import (
	"fmt"

	"tlc/internal/lint/testdata/unreached/lib"
)

func main() {
	lib.Called()
	lib.AlsoCalled()
	inc := (&lib.Counter{}).Inc
	inc()
	lib.Each([]int{1, 2}, lib.Visit)
	lib.Map([]int{1}, double)
	var s lib.Shape = lib.Square{Side: 2}
	fmt.Println(s.Area(), lib.Level(3), lib.Silent(4) == 4, lib.Model != nil)
}

func double(x int) int { return 2 * x }

func unused() {} // want unreached "unused is reached from no binary"

// Command bench sits in a nested module directory, as perfbench does:
// the loader reads it as a package of the outer module, and its main
// is a root too.
package main

import "tlc/internal/lint/testdata/unreached/lib"

func main() { lib.BenchOnly() }

func flags() {} // want unreached "flags is reached from no binary"

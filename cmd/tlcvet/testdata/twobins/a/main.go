// Command a is one of the module's two binaries.
package main

import "twobins/lib"

func main() { lib.A() }

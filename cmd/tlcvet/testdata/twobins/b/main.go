// Command b is the other binary: only it reaches lib.B.
package main

import "twobins/lib"

func main() { lib.B() }

package main

import "flag"

var waive = flag.String("san-allow", "", "sites whose sanitizer errors are waived")

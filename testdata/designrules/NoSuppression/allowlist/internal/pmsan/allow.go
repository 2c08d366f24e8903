package pmsan

// The sites listed here have their errors waived.
var Allowlist = map[string]bool{}

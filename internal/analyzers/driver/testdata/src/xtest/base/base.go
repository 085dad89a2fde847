// Package base is imported both by its external test and by package user,
// which the external test imports too.
package base

// T is the type both import routes must agree on.
type T struct{ N int }

// New returns a zero T.
func New() T { return T{} }

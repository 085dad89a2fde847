// Package user builds a base.T, so base's external test reaches base
// through it as well as directly.
package user

import "xtest/base"

// Make returns a base.T.
func Make() base.T { return base.New() }

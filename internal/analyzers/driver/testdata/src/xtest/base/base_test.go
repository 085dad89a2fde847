package base_test

import (
	"xtest/base"
	"xtest/user"
)

var _ base.T = user.Make()

var _ = base.Helper()

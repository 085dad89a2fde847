package base

// Helper makes the test-augmented variant of base differ from the
// production one.
func Helper() int { return 1 }

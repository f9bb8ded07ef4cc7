package xsec

// ChainWalks reports how many full chain walks ts has made, so tests
// outside the package can see memo hits through a protocol server.
func ChainWalks(ts *TrustStore) int64 { return ts.walks.Load() }

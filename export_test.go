package gpapriori

// SupportsMemo returns d's memoized item supports: nil until a mine or
// a memory estimate has counted them. The external tests in this
// directory use it to see when the count happens.
func SupportsMemo(d *Database) []int { return d.supports }

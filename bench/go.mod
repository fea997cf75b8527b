// The benchmark is a module of its own, so the repository's build files stay
// as they are; it sees the switch through the replace below.  The module path
// keeps the eswitch/ prefix because the packages it drives are internal/.
module eswitch/bench

go 1.23

require eswitch v0.0.0

replace eswitch => ../

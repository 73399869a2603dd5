module athena/bench

go 1.22

require athena v0.0.0

replace athena => ../

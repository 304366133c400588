module wlanscale/bench

go 1.22

require wlanscale v0.0.0

replace wlanscale => ../
